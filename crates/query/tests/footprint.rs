//! The index's footprint, as a number a test holds.
//!
//! The build runs on the calling thread, which is where `testkit`'s
//! counting allocator tallies it.

use dht::Ring;
use netsim::HostId;
use query::{HostSample, QueryIndex, RegionBounds};
use simcore::SimTime;
use testkit::tally;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

/// The layout this one replaced cost 1 923 B per host at this size (an
/// aggregate for every logical node, a retained `SomoTree`, a hash map from
/// leaf to member); see DESIGN.md §10.2.
#[test]
fn resident_bytes_per_host_is_bounded() {
    const N: usize = 2048;
    let ring = Ring::with_random_ids((0..N as u32).map(HostId), 2020);
    let before = tally().live_bytes;
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
    let held = tally().live_bytes - before;
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
