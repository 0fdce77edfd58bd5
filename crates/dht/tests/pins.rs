//! The heartbeat fabric, pinned against recorded constants.
//!
//! Every other `DhtSim` determinism check in the repository is run-vs-run
//! (`tests/determinism.rs`, `tests/trace_determinism.rs`): it cannot see a
//! change that moves both runs together. Each cell below runs one ring-traced
//! simulation and compares `(bytes digested, FNV-1a-64)` — over the
//! JSON-lines trace, the message and drop counts, every node's believed
//! leafset *in order* (the order is the heartbeat send order, and therefore
//! the order of the fault layer's draws), protocol-level lookups and the
//! coherence audit, at three instants — against a constant first recorded
//! at 291cf64, before the message fabric was rebuilt (the mass-kill cell
//! at 557b295, before every node's peers moved into one slab: it is the
//! cell that revives a node whose view had emptied). All 25 were re-pinned
//! when gossip began adopting only peers that enter the receiver's
//! leafset and a node began expelling only leafset peers: the traces lost
//! every `DhtExpel` of a live peer. All 25 were re-pinned again when gossip
//! began naming only the peers its sender heard from within a
//! half-timeout and the death certificates were deleted: the digest lost
//! the certificate column and the audit's certificate checks, and 12
//! trajectories moved: 6 by the gossip rule, 8 lossy ones by the
//! certificates' removal.
//!
//! **Re-pinning** follows `crates/testkit/src/lib.rs`: a change that moves the
//! protocol *on purpose* runs the failing test, pastes the printed left-hand
//! pair over the constant and says so in CHANGES.md. A refactor or an
//! optimisation never re-pins.

use dht::proto::{DhtSim, ProtoConfig};
use dht::ring::Member;
use dht::{NodeId, Ring};
use netsim::HostId;
use simcore::audit::Auditor;
use simcore::trace::to_json_lines;
use simcore::{FaultPlan, SimTime, Tracer};
use testkit::Pin;

#[derive(Clone, Copy)]
enum Faults {
    /// Perfect delivery.
    None,
    /// 4 % loss, 25 ms jitter and one leafset link down for 30 s.
    Lossy,
    /// Two far-apart members cut off from everyone for 70 s — longer than
    /// the detection timeout, so their views empty out and they probe
    /// their `fallback` contacts until the window lifts.
    Partition,
    /// 5 % loss with member 4 cut off from everyone for 70 s.
    LossyIsland,
}

#[derive(Clone, Copy)]
enum Churn {
    Kill,
    /// Kill, revive after the ring expelled the victim, then two
    /// kill + revive flaps inside one heartbeat period.
    Flap,
    Join,
    JoinViaLookup,
    /// Kill a tenth of the ring at once, then kill and revive the island
    /// member while its view is empty.
    MassKill,
}

fn plan(faults: Faults, ring: &Ring) -> FaultPlan {
    let host = |i: usize| ring.member(i).host.0 as u64;
    match faults {
        Faults::None => FaultPlan::none(),
        Faults::Lossy => FaultPlan::with_loss(0xFA17, 0.04)
            .jitter(SimTime::from_millis(25))
            .outage(
                host(3),
                host(4),
                SimTime::from_secs(10),
                SimTime::from_secs(40),
            ),
        Faults::Partition => FaultPlan::with_loss(5, 0.0).partition(
            vec![host(4), host(ring.len() / 2)],
            SimTime::from_secs(20),
            SimTime::from_secs(90),
        ),
        Faults::LossyIsland => FaultPlan::with_loss(0x151A, 0.05).partition(
            vec![host(4)],
            SimTime::from_secs(20),
            SimTime::from_secs(90),
        ),
    }
}

fn joiner(k: u64, n: u32) -> Member {
    Member {
        id: NodeId::hash_of(0xFEED + k),
        host: HostId(n + k as u32),
    }
}

/// The member every cell's observations single out (killed by the `Kill`
/// and `Flap` cells).
const VICTIM: usize = 7;

/// Run to `at` seconds and digest everything observable.
fn observe<D: Fn(HostId, HostId) -> SimTime>(
    sim: &mut DhtSim<D>,
    auditor: &mut Auditor,
    pin: &mut Pin,
    at: u64,
) {
    sim.run_until(SimTime::from_secs(at));
    sim.audit_sample(auditor);
    pin.feed(&to_json_lines(
        &sim.take_trace().expect("ring tracer owns its records"),
    ));
    pin.feed(&format!(
        "t={at} sent={} dropped={} converged={}\n",
        sim.messages_sent(),
        sim.messages_dropped(),
        sim.converged()
    ));
    let victim_id = sim.member_of(VICTIM).id;
    for i in 0..sim.len() {
        pin.feed(&format!(
            "{i} {} {} {:?}\n",
            sim.is_alive(i),
            sim.view_contains(i, victim_id),
            sim.believed_leafset(i)
        ));
    }
    for from in [0, sim.len() / 3, sim.len() - 1] {
        for key in (0..8).map(|k| NodeId::hash_of(0xC0FFEE + k)) {
            pin.feed(&format!("{:?}\n", sim.lookup(from, key)));
        }
    }
}

/// One cell: run, churn at 30 s (and later, per `churn`), observe at 45 s,
/// 100 s and 160 s.
fn cell(n: u32, faults: Faults, churn: Churn) -> (usize, u64) {
    let ring = Ring::with_random_ids((0..n).map(HostId), 21);
    let cfg = ProtoConfig {
        // Two radii: the small ring runs a narrower leafset than the default.
        leafset_r: if n < 100 { 2 } else { 4 },
        ..ProtoConfig::default()
    };
    let mut sim = DhtSim::with_faults(
        &ring,
        cfg,
        // Host-dependent latencies, so deliveries interleave.
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(20 + u64::from(a.0 * 7 + b.0 * 13) % 50)
            }
        },
        plan(faults, &ring),
    );
    sim.set_tracer(Tracer::ring(1 << 20));
    let mut auditor = Auditor::every(SimTime::from_secs(1));
    let mut pin = Pin::new();
    sim.run_until(SimTime::from_secs(30));
    match churn {
        Churn::Kill | Churn::Flap => {
            sim.kill(VICTIM);
            sim.kill(n as usize / 3);
        }
        Churn::Join => {
            sim.join(joiner(0, n), 0);
        }
        Churn::JoinViaLookup => {
            sim.join_via_lookup(joiner(0, n), 0)
                .expect("the bootstrapped overlay routes");
        }
        Churn::MassKill => {
            for v in (VICTIM..n as usize).step_by(10) {
                sim.kill(v);
            }
        }
    }
    observe(&mut sim, &mut auditor, &mut pin, 45);
    if matches!(faults, Faults::Partition | Faults::LossyIsland) {
        assert!(
            sim.believed_leafset(4).is_empty(),
            "the island member's view should have emptied by now"
        );
    }

    sim.run_until(SimTime::from_secs(60));
    match churn {
        Churn::Kill => {}
        Churn::Flap => {
            sim.revive(VICTIM, 0);
            sim.run_until(SimTime::from_secs(72));
            for _ in 0..2 {
                sim.kill(9);
                sim.revive(9, 1);
            }
        }
        Churn::Join => {
            sim.join(joiner(1, n), n as usize / 2);
        }
        Churn::JoinViaLookup => {
            // `None` (the contact cannot route yet) is pinned like any
            // other answer.
            let joined = sim.join_via_lookup(joiner(1, n), n as usize / 2);
            pin.feed(&format!("{joined:?}\n"));
        }
        Churn::MassKill => {
            assert!(
                sim.view_ids(4).next().is_none(),
                "the island member is revived with an emptied view"
            );
            sim.kill(4);
            sim.revive(4, 0);
        }
    }
    observe(&mut sim, &mut auditor, &mut pin, 100);
    observe(&mut sim, &mut auditor, &mut pin, 160);

    let report = auditor.into_report();
    pin.feed(&format!(
        "audit samples={} checks={} violations={}\n",
        report.samples,
        report.checks,
        report.violations.len()
    ));
    pin.pair()
}

macro_rules! pins {
    ($($name:ident: $n:expr, $faults:ident, $churn:ident => $pin:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(cell($n, Faults::$faults, Churn::$churn), $pin);
        }
    )*};
}

pins! {
    n64_clean_kill: 64, None, Kill => (178913, 4358580884740494912);
    n64_clean_flap: 64, None, Flap => (180493, 11827497864356052525);
    n64_clean_join: 64, None, Join => (187599, 9558920518828489878);
    n64_clean_join_via_lookup: 64, None, JoinViaLookup => (187627, 2523866289839866334);
    n64_lossy_kill: 64, Lossy, Kill => (179259, 15147476226595714027);
    n64_lossy_flap: 64, Lossy, Flap => (180838, 14597395610709003792);
    n64_lossy_join: 64, Lossy, Join => (188296, 18147975960225360292);
    n64_lossy_join_via_lookup: 64, Lossy, JoinViaLookup => (187972, 10094680004669365265);
    n64_partition_kill: 64, Partition, Kill => (180069, 1867367557673230848);
    n64_partition_flap: 64, Partition, Flap => (181648, 15056842362600400557);
    n64_partition_join: 64, Partition, Join => (188848, 1095119700952830885);
    n64_partition_join_via_lookup: 64, Partition, JoinViaLookup => (186902, 817696879366771874);
    n512_clean_kill: 512, None, Kill => (1653153, 14255006642542499954);
    n512_clean_flap: 512, None, Flap => (1654743, 17483837767833411124);
    n512_clean_join: 512, None, Join => (1661873, 14874543181603255041);
    n512_clean_join_via_lookup: 512, None, JoinViaLookup => (1661933, 9706516608846944093);
    n512_lossy_kill: 512, Lossy, Kill => (1653794, 10066112779747508865);
    n512_lossy_flap: 512, Lossy, Flap => (1655384, 10586085748982886749);
    n512_lossy_join: 512, Lossy, Join => (1662587, 11430861439644056746);
    n512_lossy_join_via_lookup: 512, Lossy, JoinViaLookup => (1662287, 864322490659836710);
    n512_partition_kill: 512, Partition, Kill => (1655704, 7737394450323273195);
    n512_partition_flap: 512, Partition, Flap => (1657293, 3287962305638867332);
    n512_partition_join: 512, Partition, Join => (1664317, 12348017059249261455);
    n512_partition_join_via_lookup: 512, Partition, JoinViaLookup => (1662111, 14380699436490151087);
    n512_lossy_island_mass_kill: 512, LossyIsland, MassKill => (1590727, 10959180116902332646);
}
