//! A/B validation of the incremental greedy engine against the retained
//! reference: across random problems, degree bounds, and helper-finder
//! configurations the two must produce *bit-identical* trees — same
//! attachment order, same parents, same height floats — and the incremental
//! path must do strictly less scoring work at scale.

use alm::metrics::{relaxations, reset_relaxations};
use alm::{
    amcast, amcast_reference, critical, critical_reference, HelperPool, HelperStrategy,
    MulticastTree, Problem,
};
use netsim::{HostId, LatencyModel, Network, NetworkConfig};
use oracle::PoolOracle;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Unstructured pseudo-random symmetric latencies in 1..201 ms: no metric
/// structure at all, so ties and adversarial orderings are common.
#[derive(Clone, Debug)]
struct HashLatency {
    n: usize,
    seed: u64,
}

impl LatencyModel for HashLatency {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (lo, hi) = if a < b { (a.0, b.0) } else { (b.0, a.0) };
        let x = simcore::rng::mix64(self.seed ^ ((u64::from(lo) << 32) | u64::from(hi)));
        1.0 + (x % 2000) as f64 / 10.0
    }
    fn num_hosts(&self) -> usize {
        self.n
    }
}

fn degree_of(seed: u64, h: HostId) -> u32 {
    // Deterministic pseudo-random degree in 2..=9 (the paper's range).
    (simcore::rng::mix64(seed ^ u64::from(h.0)) % 8) as u32 + 2
}

fn assert_identical(inc: &MulticastTree, reference: &MulticastTree) {
    assert_eq!(inc.hosts(), reference.hosts(), "attachment order differs");
    for &h in inc.hosts() {
        assert_eq!(
            inc.parent_of(h),
            reference.parent_of(h),
            "parent of {h:?} differs"
        );
        assert_eq!(
            inc.height_of(h).to_bits(),
            reference.height_of(h).to_bits(),
            "height of {h:?} differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn amcast_engines_agree(
        n_hosts in 4usize..120,
        member_count in 2usize..60,
        lseed: u64,
        dseed: u64,
        tight in any::<bool>(),
    ) {
        let member_count = member_count.min(n_hosts);
        let lat = HashLatency { n: n_hosts, seed: lseed };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        // `tight` forces degree 2 everywhere: every parent fills after one
        // child, so the recompute path dominates.
        let dbound = move |h: HostId| if tight { 2 } else { degree_of(dseed, h) };
        let p = Problem::new(members[0], members, &lat, dbound);
        assert_identical(&amcast(&p), &amcast_reference(&p));
    }

    #[test]
    fn critical_engines_agree(
        n_hosts in 8usize..100,
        member_count in 2usize..30,
        lseed: u64,
        dseed: u64,
        radius in 0.0f64..250.0,
        min_degree in 2u32..7,
        minmax in any::<bool>(),
        stride in 1usize..4,
    ) {
        let member_count = member_count.min(n_hosts / 2);
        let lat = HashLatency { n: n_hosts, seed: lseed };
        let members: Vec<HostId> = (0..member_count as u32).map(HostId).collect();
        let p = Problem::new(
            members[0], members, &lat, move |h| degree_of(dseed, h),
        );
        // Candidate list: every stride-th host, so pools range from the
        // whole network down to a sparse third of it.
        let mut pool = HelperPool::new(
            (0..n_hosts as u32).step_by(stride).map(HostId).collect(),
        );
        pool.radius_ms = radius;
        pool.min_degree = min_degree;
        pool.strategy = if minmax {
            HelperStrategy::MinMaxSibling
        } else {
            HelperStrategy::Closest
        };
        assert_identical(&critical(&p, &pool), &critical_reference(&p, &pool));
    }
}

/// Satellite gate: at N ≥ 512 the incremental engine must perform strictly
/// fewer relaxations (candidate scoring attempts) than the reference while
/// producing the identical tree.
#[test]
fn strictly_fewer_relaxations_at_n512() {
    let lat = HashLatency { n: 640, seed: 2026 };
    let members: Vec<HostId> = (0..512).map(HostId).collect();
    let dbound = |h: HostId| degree_of(99, h);
    let p = Problem::new(members[0], members.clone(), &lat, dbound);

    reset_relaxations();
    let reference = amcast_reference(&p);
    let ref_relax = relaxations();
    reset_relaxations();
    let inc = amcast(&p);
    let inc_relax = relaxations();
    assert_identical(&inc, &reference);
    assert!(
        inc_relax < ref_relax,
        "amcast: incremental did {inc_relax} relaxations, reference {ref_relax}"
    );

    let pool = HelperPool::new((0..640).map(HostId).collect());
    reset_relaxations();
    let reference = critical_reference(&p, &pool);
    let ref_relax = relaxations();
    reset_relaxations();
    let inc = critical(&p, &pool);
    let inc_relax = relaxations();
    assert_identical(&inc, &reference);
    assert!(
        inc_relax < ref_relax,
        "critical: incremental did {inc_relax} relaxations, reference {ref_relax}"
    );
}

/// The planner anchor's N = 1 024 cell (`perf_planner`: generated
/// transit–stub network, the paper's degree distribution, half the hosts
/// members, the rest helper candidates): both engines equal their
/// references tree for tree with no more relaxations — under the paper's
/// degrees most nodes are leaves, so the counts may tie — and the same
/// plans come out of `PoolOracle::Exact` as out of the bare kernel: the
/// enum dispatch may not perturb anything.
#[test]
fn generated_network_at_n1024_matches_reference_and_exact_source() {
    const N: usize = 1024;
    const SEED: u64 = 2024;
    let net = Network::generate(
        &NetworkConfig {
            num_hosts: N,
            ..NetworkConfig::default()
        },
        SEED,
    );
    let mut all: Vec<u32> = (0..N as u32).collect();
    all.shuffle(&mut rand::rngs::StdRng::seed_from_u64(SEED ^ N as u64));
    let members: Vec<HostId> = all[..N / 2].iter().copied().map(HostId).collect();
    let mut pool = HelperPool::new(all[N / 2..].iter().copied().map(HostId).collect());
    pool.min_degree = 4;
    pool.radius_ms = 100.0;
    let dbound = |h: HostId| net.hosts.degree_bound(h);

    let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
    let exact = PoolOracle::Exact(net.latency.clone());
    let pe = Problem::new(members[0], members.clone(), &exact, dbound);

    let counted = |run: &dyn Fn() -> MulticastTree| {
        reset_relaxations();
        let tree = run();
        (tree, relaxations())
    };
    for (engine, (inc, inc_relax), (reference, ref_relax), through_exact) in [
        (
            "amcast",
            counted(&|| amcast(&p)),
            counted(&|| amcast_reference(&p)),
            amcast(&pe),
        ),
        (
            "critical",
            counted(&|| critical(&p, &pool)),
            counted(&|| critical_reference(&p, &pool)),
            critical(&pe, &pool),
        ),
    ] {
        assert_identical(&inc, &reference);
        assert!(
            inc_relax <= ref_relax,
            "{engine}: incremental did {inc_relax} relaxations, reference {ref_relax}"
        );
        assert_identical(&through_exact, &inc);
    }
}
