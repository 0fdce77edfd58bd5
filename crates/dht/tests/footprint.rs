//! The heartbeat fabric's footprint, as numbers a test holds: a simulator
//! keeps every node's peers in a handful of flat tables, so the allocations
//! it holds do not grow with the ring, and dropping it gives everything
//! back (DESIGN.md §8.3).
//!
//! `testkit`'s counting allocator keeps its tallies per thread, so the
//! tests of this binary can run side by side.

use dht::proto::{DhtSim, ProtoConfig};
use dht::Ring;
use netsim::HostId;
use simcore::{FaultPlan, SimTime};
use testkit::tally;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

/// A simulated minute under 5 % loss at 20 ms a hop, one node in 64 killed
/// at 10 s.
fn churned(ring: &Ring) -> DhtSim<impl Fn(HostId, HostId) -> SimTime> {
    let mut sim = DhtSim::with_faults(
        ring,
        ProtoConfig::default(),
        |_a, _b| SimTime::from_millis(20),
        FaultPlan::with_loss(7, 0.05),
    );
    sim.run_until(SimTime::from_secs(10));
    for victim in (5..ring.len()).step_by(64) {
        sim.kill(victim);
    }
    sim.run_until(SimTime::from_secs(60));
    sim
}

/// What the simulator holds is its tables: 10 allocations at N = 1 024 and
/// at N = 4 096, where b2e61ee held 14 (an ID column beside the node
/// table, a free list per payload length, and the expiry's scratch list).
/// Each gossip payload in flight was two allocations more (an `Rc` and its
/// vector) until the payloads moved into one buffer: 205 and 533 at
/// 2eb2edf. With a view, a certificate list and a fallback list per node,
/// 557b295 held 3 254 and 12 750.
#[test]
fn live_allocations_do_not_scale_with_the_ring() {
    for n in [1024u32, 4096] {
        let ring = Ring::with_random_ids((0..n).map(HostId), 3);
        let before = tally();
        let sim = churned(&ring);
        let held = tally().live_calls - before.live_calls;
        assert!(sim.messages_dropped() > 0, "the loss plan never fired");
        assert!(
            held <= 16,
            "a {n}-node simulator holds {held} live allocations"
        );
    }
}

/// What a churned node costs: its share of the peer slab's two columns (a
/// peer index and a time, 12 B an entry, in a power-of-two row: its view),
/// of the event queue (32 B an event), of the gossip buffer (runs of
/// 2r + 3 words), its fallback contacts (4 B each) and its 32 B of node
/// state, its ID included. 326 B here. With a certificate row per node
/// (empty unless a peer died or went unanswered), an 8 B ID column beside
/// 32 B of node state and gossip runs of every length, b2e61ee held 334 B.
/// When gossip adopted any peer, views took rows of 16 and every node kept
/// a certificate row: a8b1267 held 529 B. With 16 B `(NodeId, SimTime)`
/// entries, 40 B events, `Rc` payloads, 8 B fallback IDs and an ID → index
/// map, 2eb2edf held 753 B.
#[test]
fn a_churned_node_holds_under_335_bytes() {
    let n = 4096;
    let ring = Ring::with_random_ids((0..n as u32).map(HostId), 3);
    let before = tally();
    let sim = churned(&ring);
    let per_node = (tally().live_bytes - before.live_bytes) / n;
    assert!(sim.messages_dropped() > 0, "the loss plan never fired");
    assert!(
        per_node <= 335,
        "a churned {n}-node simulator holds {per_node} B a node"
    );
}

#[test]
fn a_dropped_simulator_gives_every_byte_back() {
    let ring = Ring::with_random_ids((0..1024).map(HostId), 3);
    let before = tally();
    let sim = churned(&ring);
    assert!(tally().live_bytes > before.live_bytes + 1024 * 64);
    drop(sim);
    let after = tally();
    assert_eq!(after.live_bytes, before.live_bytes);
    assert_eq!(after.live_calls, before.live_calls);
}
