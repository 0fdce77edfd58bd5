//! An expulsion means a death: on a fabric that loses nothing, the
//! heartbeat protocol expels no live peer (DESIGN.md §8.3).
//!
//! Gossip adopts a peer only if it would enter the receiver's leafset, and
//! a node expels only leafset peers, each of which it heartbeats and each
//! of which answers. Before that rule, gossip adopted peers beyond the
//! leafset that nobody heartbeated: a crash-free, loss-free run of 512
//! nodes traced 40 960 `DhtExpel` records in 300 s, every one of a live
//! peer.

use p2p_resource_pool::dht::proto::{DhtSim, ProtoConfig};
use p2p_resource_pool::dht::ring::Member;
use p2p_resource_pool::dht::{NodeId, Ring};
use p2p_resource_pool::netsim::HostId;
use p2p_resource_pool::simcore::trace::TraceEvent;
use p2p_resource_pool::simcore::{FaultPlan, SimTime, Tracer};

const N: u32 = 512;

/// A loss-free, crash-free ring of `N` at 200 ms a hop, ring-traced.
fn clean() -> DhtSim<impl Fn(HostId, HostId) -> SimTime> {
    let ring = Ring::with_random_ids((0..N).map(HostId), 40);
    let mut sim = DhtSim::with_faults(
        &ring,
        ProtoConfig::default(),
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(200)
            }
        },
        FaultPlan::none(),
    );
    sim.set_tracer(Tracer::ring(1 << 20));
    sim
}

/// `(heartbeats, expulsions)` among the records traced so far.
fn traced(sim: &mut DhtSim<impl Fn(HostId, HostId) -> SimTime>) -> (usize, usize) {
    let records = sim.take_trace().expect("ring tracer owns its records");
    let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.ev)).count();
    (
        count(|e| matches!(e, TraceEvent::DhtHeartbeat { .. })),
        count(|e| matches!(e, TraceEvent::DhtExpel { .. })),
    )
}

/// Whether node `i` holds exactly its believed leafset: no peer beyond it.
fn holds_only_its_leafset(sim: &DhtSim<impl Fn(HostId, HostId) -> SimTime>, i: usize) -> bool {
    let mut leafset = sim.believed_leafset(i);
    leafset.sort_unstable();
    sim.view_ids(i).eq(leafset)
}

#[test]
fn a_clean_ring_expels_no_one_in_300_s() {
    let mut sim = clean();
    sim.run_until(SimTime::from_secs(300));
    let (heartbeats, expels) = traced(&mut sim);
    // Every node fires its timer once a 5 s period: 60 rounds.
    assert_eq!(heartbeats, N as usize * 60);
    assert_eq!(expels, 0, "a ring nobody left expelled {expels} peers");
    assert_eq!(sim.false_expels(), 0);
    assert!(sim.converged());
    // Gossip offered every node its neighbours' leafsets 60 times over and
    // it adopted none of the peers beyond its own.
    let wide = (0..sim.len())
        .filter(|&i| !holds_only_its_leafset(&sim, i))
        .count();
    assert_eq!(wide, 0, "{wide} nodes adopted peers beyond their leafset");
}

#[test]
fn a_join_via_lookup_expels_no_live_peer() {
    let mut sim = clean();
    sim.run_until(SimTime::from_secs(30));
    let joiner = Member {
        id: NodeId::hash_of(0xFEED),
        host: HostId(N),
    };
    let j = sim
        .join_via_lookup(joiner, 0)
        .expect("the bootstrapped overlay routes");
    // The joiner keeps only what would be its leafset of the owner's view.
    assert!(holds_only_its_leafset(&sim, j));
    sim.run_until(SimTime::from_secs(300));
    // The joiner displaced a peer from each of its 2r neighbours'
    // leafsets: those peers stopped heartbeating each other, and each
    // forgot the other without certifying it dead.
    let (_, expels) = traced(&mut sim);
    assert_eq!(expels, 0, "the join caused {expels} expulsions");
    assert_eq!(sim.false_expels(), 0);
    assert!(sim.converged(), "the joiner did not integrate");
}
