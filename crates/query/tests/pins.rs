//! The status index, pinned against recorded constants.
//!
//! The query layer's other trajectory check
//! (`faulted_query_trajectory_is_bit_identical_across_runs` in the root
//! `tests/determinism.rs`) compares a run with itself, and the brute-force
//! comparisons (`engine.rs`, `crates/pool/tests/prop_query.rs`) cover the
//! returned hosts but not what an answer *cost*. Each cell below builds one
//! index and compares `(bytes digested, FNV-1a-64)` — over the `Debug` of
//! every answer (hosts, order, summary, freshness, every `QueryStats`
//! field), every subscription delta, the cached aggregate of **every**
//! logical node, the member ↔ leaf maps, the freshness bound and both
//! traffic ledgers — against a constant recorded at 6877b76, before the
//! index's layout was rebuilt.
//!
//! One cell is: build over a ring with ~30 % silent members and ties in
//! every rank; the query battery; `update_member` on five members (two
//! withdrawn); a `refresh` that silences every 13th member and moves every
//! other sample; the same battery again. The battery is `top_k` over
//! k ∈ {1, 12, 512, n + 5} × rank 0..=3 × `min_free` ∈ {0, 4} ×
//! exclude ∈ {∅, 24 hosts} × {`Global`, `Nearest` from three members},
//! `range` on three disks and `point` on a live, a silent and an unknown
//! host. Two standing queries are evaluated after each of the three
//! mutations; between them they alarm, clear and alarm again.
//!
//! **Re-pinning** follows `crates/testkit/src/lib.rs`: a change that moves an
//! answer or a charge *on purpose* runs the failing test, pastes the
//! printed left-hand pair over the constant and says so in CHANGES.md. A
//! refactor or an optimisation never re-pins.

use dht::Ring;
use netsim::HostId;
use query::{HostSample, QueryIndex, RegionBounds, Scope, SubscriptionSet, ThresholdDelta};
use simcore::SimTime;
use somo::SomoTree;
use testkit::Pin;

const PERIOD: SimTime = SimTime::from_secs(5);

/// Host `h`'s sample in gather round `epoch`. Few distinct values per rank
/// (ties everywhere), every 17th host far above the rest (the upper
/// histogram buckets), positions that overshoot the region box on every
/// side, bandwidth classes 5 and 6 that clamp into the last bucket.
fn sample(h: u32, epoch: u32) -> HostSample {
    let v = h + 3 * epoch;
    let f3 = if v % 17 == 3 { 8 + v % 40 } else { v % 5 };
    let f2 = f3 + (v / 5) % 3;
    let f1 = f2 + (v / 15) % 2;
    let f0 = f1 + (v / 30) % 3;
    HostSample {
        host: HostId(h),
        free: [f0, f1, f2, f3],
        pos: [
            ((v * 37) % 900) as f64 - 450.0,
            ((v * 91) % 900) as f64 - 450.0,
        ],
        bw_class: (v % 7) as u8,
        sampled_at: SimTime::from_secs(10 * u64::from(epoch) + u64::from(h % 9)),
        capacity: f0 + v % 4,
        queued: v % 3,
        preempted: (v / 3) % 2,
    }
}

/// ~30 % of hosts publish nothing in a given epoch (host 0 reports in
/// epoch 0, so the n = 1 root starts as a reporting leaf).
fn silent(h: u32, epoch: u32) -> bool {
    ((h + epoch).wrapping_mul(2_654_435_761) >> 16) % 10 >= 7
}

/// Everything observable about the index that is not a query answer.
fn feed_state(pin: &mut Pin, idx: &QueryIndex, nodes: usize) {
    for i in 0..nodes as u32 {
        pin.feed(&format!(
            "{i} {:?} {:?}\n",
            idx.member_of_leaf(i),
            idx.aggregate(i)
        ));
    }
    pin.feed(&format!(
        "root {:?}\nbound {:?} maint {:?} query {:?}\n",
        idx.root_aggregate(),
        idx.freshness_bound(),
        idx.maintenance_traffic(),
        idx.query_traffic()
    ));
}

/// The query battery.
fn battery(pin: &mut Pin, idx: &mut QueryIndex, n: u32) {
    let members = idx.members() as u32;
    let exclude: Vec<HostId> = (0..n)
        .step_by((n as usize).div_ceil(23))
        .map(HostId)
        .chain([HostId(n + 100)])
        .collect();
    let scopes = [
        Scope::Global,
        Scope::Nearest { member: 0 },
        Scope::Nearest {
            member: members / 2,
        },
        Scope::Nearest {
            member: members - 1,
        },
    ];
    for k in [1, 12, 512, n as usize + 5] {
        for rank in 0..4 {
            for min_free in [0, 4] {
                for excl in [&[][..], &exclude[..]] {
                    for scope in scopes {
                        let ans = idx.top_k(k, rank, min_free, excl, scope);
                        pin.feed(&format!("{ans:?}\n"));
                    }
                }
            }
        }
    }
    for (center, radius, rank, min_free) in [
        ([0.0, 0.0], 150.0, 3, 1),
        ([-300.0, 250.0], 200.0, 1, 0),
        ([390.0, 390.0], 60.0, 0, 4),
    ] {
        let ans = idx.range(center, radius, rank, min_free);
        pin.feed(&format!("{ans:?}\n"));
    }
    let live = (0..members as usize).find_map(|m| idx.sample(m).map(|s| s.host));
    let quiet = (0..n).map(HostId).find(|&h| idx.member_of(h).is_none());
    for host in [live, quiet, Some(HostId(n + 1000))].into_iter().flatten() {
        let ans = idx.point(host);
        pin.feed(&format!("{host:?} -> {:?} {ans:?}\n", idx.member_of(host)));
    }
}

/// One evaluation of the standing queries: the deltas and what their
/// dissemination has cost so far.
fn evaluate(
    pin: &mut Pin,
    idx: &mut QueryIndex,
    subs: &mut SubscriptionSet,
    now: SimTime,
    fired: &mut Vec<ThresholdDelta>,
) {
    let deltas = subs.evaluate(idx, now);
    pin.feed(&format!("deltas {deltas:?} traffic {:?}\n", subs.traffic()));
    fired.extend(deltas);
}

fn cell(n: u32, fanout: usize) -> (usize, u64) {
    let ring = Ring::with_random_ids((0..n).map(HostId), 0x51A7 + u64::from(n));
    let nodes = SomoTree::build(&ring, fanout).len();
    let host_of = |m: usize| ring.member(m).host.0;
    let publish = |m: usize, epoch: u32| {
        let h = host_of(m);
        (!silent(h, epoch)).then(|| sample(h, epoch))
    };
    let mut idx = QueryIndex::build(&ring, fanout, PERIOD, RegionBounds::default(), |m| {
        publish(m, 0)
    });
    let mut pin = Pin::new();
    for m in 0..ring.len() {
        pin.feed(&format!("{m} {}\n", idx.leaf_of(m)));
    }

    // Two standing queries. The first counts the hosts with any rank-3
    // degree in a disk around the origin and starts exactly at its
    // threshold (silent until the refresh below thins the pool); the
    // second counts hosts no base sample satisfies, so it alarms at once
    // and clears when `update_member` publishes three such hosts.
    let mut subs = SubscriptionSet::new();
    let around_origin = |s: &HostSample| {
        s.free[3] >= 1 && (s.pos[0] * s.pos[0] + s.pos[1] * s.pos[1]).sqrt() <= 420.0
    };
    let at_build = (0..ring.len())
        .filter_map(|m| publish(m, 0))
        .filter(around_origin)
        .count() as u64;
    subs.subscribe(n / 3, [0.0, 0.0], 420.0, 3, 1, at_build);
    subs.subscribe(n - 1, [0.0, 0.0], 1e4, 0, 1000, 2);

    let mut fired = Vec::new();

    feed_state(&mut pin, &idx, nodes);
    battery(&mut pin, &mut idx, n);
    evaluate(
        &mut pin,
        &mut idx,
        &mut subs,
        SimTime::from_secs(12),
        &mut fired,
    );

    // Five point updates, two of them withdrawals.
    for j in 0..5 {
        let m = j * ring.len() / 5;
        let update = (j % 2 == 0).then(|| {
            let mut s = sample(host_of(m), 1);
            s.free = [1003, 1002, 1001, 1000];
            s
        });
        idx.update_member(m, update);
        pin.feed(&format!(
            "update {m} maint {:?}\n",
            idx.maintenance_traffic()
        ));
    }
    feed_state(&mut pin, &idx, nodes);
    evaluate(
        &mut pin,
        &mut idx,
        &mut subs,
        SimTime::from_secs(14),
        &mut fired,
    );

    // The next gather round: every 13th member falls silent, a different
    // 30 % publish nothing, everyone else's sample moves.
    idx.refresh(|m| if m % 13 == 0 { None } else { publish(m, 2) });
    feed_state(&mut pin, &idx, nodes);
    battery(&mut pin, &mut idx, n);
    evaluate(
        &mut pin,
        &mut idx,
        &mut subs,
        SimTime::from_secs(25),
        &mut fired,
    );
    feed_state(&mut pin, &idx, nodes);
    if n >= 64 {
        // Second query: alarm, clear, alarm. First: one alarm at the end.
        let second: Vec<bool> = fired
            .iter()
            .filter(|d| d.sub == 1)
            .map(|d| d.below)
            .collect();
        assert_eq!(second, [true, false, true], "n={n} k={fanout}");
        assert!(
            fired.iter().any(|d| d.sub == 0 && d.below),
            "n={n} k={fanout}"
        );
    }
    pin.pair()
}

macro_rules! pins {
    ($($name:ident: $n:expr, $k:expr => $pin:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(cell($n, $k), $pin);
        }
    )*};
}

pins! {
    n1_k2: 1, 2 => (394732, 2777486124044414730);
    n1_k4: 1, 4 => (394732, 2777486124044414730);
    n1_k8: 1, 8 => (394732, 2777486124044414730);
    n2_k2: 2, 2 => (403610, 7870299481294351045);
    n2_k4: 2, 4 => (407606, 5326271723709690221);
    n2_k8: 2, 8 => (414269, 16106388283421450149);
    n64_k2: 64, 2 => (1956675, 968129743307182651);
    n64_k4: 64, 4 => (1945406, 11742509842155991327);
    n64_k8: 64, 8 => (2030855, 6422981621779886628);
    n700_k2: 700, 2 => (17418122, 6927390868426979808);
    n700_k4: 700, 4 => (17560186, 5315526429003254009);
    n700_k8: 700, 8 => (18822882, 15722091263650516192);
    n2048_k2: 2048, 2 => (40122895, 5596183762099530331);
    n2048_k4: 2048, 4 => (40436353, 6789752482946575602);
    n2048_k8: 2048, 8 => (44072659, 10523882900812848730);
}
