//! The planner's working set, as numbers a test holds: what a plan
//! allocates depends on the session, not on the pool it is drawn from, and
//! the tree it returns is a few flat vectors (DESIGN.md §11.6).
//!
//! `testkit`'s counting allocator keeps its tallies per thread, so the
//! tests of this binary can run side by side.

use alm::{amcast, critical, HelperPool, MulticastTree, Problem};
use netsim::{HostId, LatencyModel};
use testkit::measured;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

/// The adversarial model of `incremental_equivalence.rs`, reporting
/// whatever pool size it is told to.
struct HashLatency {
    n: usize,
}

impl LatencyModel for HashLatency {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (lo, hi) = if a < b { (a.0, b.0) } else { (b.0, a.0) };
        let x = simcore::rng::mix64(0xF007 ^ ((u64::from(lo) << 32) | u64::from(hi)));
        1.0 + (x % 2000) as f64 / 10.0
    }
    fn num_hosts(&self) -> usize {
        self.n
    }
}

fn degree_of(h: HostId) -> u32 {
    (simcore::rng::mix64(0xD ^ u64::from(h.0)) % 8) as u32 + 2
}

fn ids(range: std::ops::Range<u32>) -> Vec<HostId> {
    range.map(HostId).collect()
}

/// One 64-member session costs the same in a pool of 96 hosts and in one of
/// four million: 6 448 B for `amcast`, 12 924 B for `critical`. At 181c10f
/// the engine opened with six dense per-host vectors and `amcast` allocated
/// 30 912 B in the first pool, 234 906 560 B in the second.
#[test]
fn a_plan_allocates_by_the_session_not_by_the_pool() {
    let pool = HelperPool::new(ids(64..96));
    let cost = |n: usize| {
        let lat = HashLatency { n };
        let p = Problem::new(HostId(0), ids(0..64), &lat, degree_of);
        let (plain, plain_cost) = measured(|| amcast(&p));
        let (helped, helped_cost) = measured(|| critical(&p, &pool));
        assert_eq!(plain.len(), 64);
        assert!(helped.len() > 64, "no helper recruited");
        (plain_cost.bytes, helped_cost.bytes)
    };
    let small = cost(96);
    let large = cost(1 << 22);
    assert_eq!(small, large, "(amcast, critical) bytes at 96 vs 2²² hosts");
    assert!(
        small.0 < 64 << 10 && small.1 < 64 << 10,
        "amcast {} B, critical {} B",
        small.0,
        small.1
    );
}

/// Measured at 1 024 nodes, where every doubling vector is exactly full:
/// 40 B per node, a clone is 4 allocations. At 181c10f the same tree held
/// 98 992 B (97 B per node) and a clone made 346 allocations (a `Vec` per
/// interior node, a SipHash map).
#[test]
fn a_tree_is_a_few_flat_vectors() {
    const N: u32 = 1024;
    let (tree, built) = measured(|| {
        let mut t = MulticastTree::new(HostId(7));
        for i in 1..N {
            // Fan-out 3, ids scattered over a 2²² pool.
            let parent = t.hosts()[((i - 1) / 3) as usize];
            t.attach(HostId(7 + i * 4099), parent, 1.5);
        }
        t
    });
    assert_eq!(tree.len(), N as usize);
    assert!(
        built.held <= 48 * N as usize,
        "{} B = {} B per node",
        built.held,
        built.held / N as usize
    );
    let (copy, cloned) = measured(|| tree.clone());
    assert!(cloned.calls <= 8, "clone made {} allocations", cloned.calls);
    assert!(cloned.held <= built.held);
    assert_eq!(copy.bfs_order(), tree.bfs_order());
}

/// Peak live heap of one 1 024-member plan, returned tree included: the
/// pending members, the capacity index and the tree (100 544 B), with no
/// slack that grows with the number of re-scorings. At 181c10f this read
/// 347 768 B in a pool of 1 024 hosts (57 KB of dense state, a selection
/// heap keeping every superseded entry, by-parent lists keeping every stale
/// filing, a 103 KB tree) and 2 125 432 B in a pool of 32 768.
#[test]
fn peak_live_heap_of_a_1024_member_plan_is_bounded() {
    let lat = HashLatency { n: 1024 };
    let p = Problem::new(HostId(0), ids(0..1024), &lat, degree_of);
    let (tree, cost) = measured(|| amcast(&p));
    assert_eq!(tree.len(), 1024);
    assert!(cost.peak < 256 << 10, "peak live {} B", cost.peak);
}
