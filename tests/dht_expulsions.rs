//! An expulsion means a death, and a death means an expulsion within one
//! bound: on a fabric that loses nothing, the heartbeat protocol expels no
//! live peer, and every crashed peer leaves every live view within
//! `timeout + HEARTBEAT + 2 hops` of its crash (DESIGN.md §8.3).
//!
//! Gossip adopts a peer only if it would enter the receiver's leafset, and
//! a node expels only leafset peers, each of which it heartbeats and each
//! of which answers. Before that rule, gossip adopted peers beyond the
//! leafset that nobody heartbeated: a crash-free, loss-free run of 512
//! nodes traced 40 960 `DhtExpel` records in 300 s, every one of a live
//! peer. Gossip names only the peers its sender heard from itself within a
//! half-timeout. Before that rule, a node that had expelled a dead peer
//! could adopt it again from a neighbour that had not, and the last of
//! `ext_recovery`'s loss-free victims left the last view up to 29.0 s after
//! the crash.

use p2p_resource_pool::dht::proto::{DhtSim, ProtoConfig};
use p2p_resource_pool::dht::ring::Member;
use p2p_resource_pool::dht::{NodeId, Ring};
use p2p_resource_pool::netsim::HostId;
use p2p_resource_pool::simcore::trace::TraceEvent;
use p2p_resource_pool::simcore::{FaultPlan, SimTime, Tracer};
use rand::seq::SliceRandom;
use rand::SeedableRng;

const N: u32 = 512;
const HOP: SimTime = SimTime::from_millis(200);
/// `dht::proto`'s heartbeat period.
const HEARTBEAT: SimTime = SimTime::from_secs(5);

/// A loss-free ring of `N` at `HOP` a hop, its IDs drawn from `seed`.
fn ring_of(seed: u64) -> (Ring, DhtSim<impl Fn(HostId, HostId) -> SimTime>) {
    let ring = Ring::with_random_ids((0..N).map(HostId), seed);
    let sim = DhtSim::with_faults(
        &ring,
        ProtoConfig::default(),
        |a, b| if a == b { SimTime::ZERO } else { HOP },
        FaultPlan::none(),
    );
    (ring, sim)
}

/// A loss-free, crash-free ring, ring-traced.
fn clean() -> DhtSim<impl Fn(HostId, HostId) -> SimTime> {
    let (_, mut sim) = ring_of(40);
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

/// The `f` members `ext_recovery`'s trial of seed `seed` crashes
/// (`pool::recovery`'s victim draw).
fn victims(ring: &Ring, seed: u64, f: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..ring.len()).collect();
    all.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed + 100));
    all.truncate(f);
    all
}

#[test]
fn every_victim_leaves_every_live_view_within_one_bound() {
    // A victim's last message lands a hop after the crash, and a peer
    // stops gossiping it a half-timeout after that; a node that adopts it
    // from that gossip a hop later stamps it a half-timeout stale. Every
    // holder's entry is therefore at most two hops younger than the crash,
    // and the holder's next heartbeat timer after the entry's timeout
    // drops it.
    let bound = ProtoConfig::default().timeout + HEARTBEAT + HOP + HOP;
    let crash = SimTime::from_secs(30);
    // `ext_recovery`'s loss-free trials: seeds 40..45, f = 1, 4 and 8.
    for seed in 40..45 {
        for f in [1, 4, 8] {
            let (ring, mut sim) = ring_of(seed);
            sim.run_until(crash);
            let victims = victims(&ring, seed, f);
            for &v in &victims {
                sim.kill(v);
            }
            let ids: Vec<NodeId> = victims.iter().map(|&v| ring.member(v).id).collect();
            let held = |sim: &DhtSim<_>| {
                (0..sim.len())
                    .filter(|&i| sim.is_alive(i))
                    .filter(|&i| sim.view_ids(i).any(|id| ids.contains(&id)))
                    .count()
            };
            sim.run_until(crash + bound);
            assert_eq!(
                held(&sim),
                0,
                "seed {seed}, f = {f}: live views still hold a victim {bound} after the crash"
            );
            // Nothing gossips a victim any more: it stays out.
            sim.run_until(crash + bound + bound);
            assert_eq!(held(&sim), 0, "seed {seed}, f = {f}: a victim came back");
        }
    }
}
