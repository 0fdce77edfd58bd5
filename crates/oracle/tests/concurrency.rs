//! The tiered oracle under real threads. No planner plans on more than one
//! thread today, but the oracle still crosses threads: `bench::parallel_runs`
//! workers borrow one pristine `ResourcePool` and clone it — oracle
//! included — concurrently, and every `LatencyModel` handed to
//! `GnpSolver::solve*` is read by `fit_hosts`' scoped workers
//! (`impl LatencyModel + Sync`). So plain lookups through `share()` handles
//! must be read-only on the hot tier (lookup order can never change state),
//! and batched pre-promotion of a member union must be order-independent.

use coords::{GnpConfig, GnpSolver};
use netsim::hosts::HostSet;
use netsim::topology::TransitStubConfig;
use netsim::{HostId, LatencyModel, RouterNet};
use oracle::{LandmarkSketch, TieredConfig, TieredOracle};

fn build(n: usize, seed: u64, cfg: &TieredConfig) -> TieredOracle {
    let net = RouterNet::generate(&TransitStubConfig::default(), seed);
    let hosts = HostSet::attach(&net, n, (3.0, 8.0), seed.wrapping_add(1));
    let lms = LandmarkSketch::default_landmarks(hosts.len(), cfg.landmarks, seed);
    let sketch = LandmarkSketch::build(&net, &hosts, &lms);
    let coords = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
        &sketch.probes(),
        &lms,
        seed.wrapping_add(9),
    );
    TieredOracle::new(&net, &hosts, coords, sketch, cfg)
}

/// Every host pair the tests compare, in a fixed order.
fn pairs(n: u32, stride: u32) -> Vec<(HostId, HostId)> {
    let mut ps = Vec::new();
    for a in (0..n).step_by(stride as usize) {
        for b in (0..n).step_by(stride as usize) {
            ps.push((HostId(a), HostId(b)));
        }
    }
    ps
}

#[test]
fn concurrent_lookups_never_mutate_hot_tier_state() {
    let oracle = build(200, 17, &TieredConfig::default());
    oracle.promote(&(0..32).map(HostId).collect::<Vec<_>>());
    let before = oracle.stats();
    let rows_before = oracle.resident_rows();
    // The sequential answers are the contract; workers must reproduce
    // them bit-for-bit while racing each other on the shared hot tier.
    let ps = pairs(200, 7);
    let want: Vec<u64> = ps
        .iter()
        .map(|&(a, b)| oracle.latency_ms(a, b).to_bits())
        .collect();
    let after_seq = oracle.stats();
    const THREADS: usize = 8;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let handle = oracle.share();
            let ps = &ps;
            let want = &want;
            s.spawn(move || {
                for (&(a, b), &w) in ps.iter().zip(want) {
                    assert_eq!(
                        handle.latency_ms(a, b).to_bits(),
                        w,
                        "concurrent lookup diverged at ({}, {})",
                        a.0,
                        b.0
                    );
                }
            });
        }
    });
    let after = oracle.stats();
    // Lookups promoted nothing, evicted nothing, resized nothing.
    assert_eq!(after.promotions, before.promotions);
    assert_eq!(after.evictions, before.evictions);
    assert_eq!(oracle.resident_rows(), rows_before);
    // Every lookup landed in exactly one tier's counter — none lost to
    // the race, none double-counted.
    let per_pass = after_seq.total() - before.total();
    assert_eq!(
        after.total() - after_seq.total(),
        per_pass * THREADS as u64,
        "concurrent hit accounting dropped or duplicated lookups"
    );
}

#[test]
fn batched_pre_promotion_is_order_independent() {
    // Every planner promotes the rows it is about to read before planning,
    // in whatever chunks its call sites happen to use. As long as the union
    // fits the hot tier eviction-free (re-checked at the end), the resident
    // set — and therefore every answer — must not depend on the order.
    let cfg = TieredConfig::default();
    let a = build(200, 23, &cfg);
    let b = build(200, 23, &cfg);
    let union: Vec<HostId> = (0..48).map(HostId).collect();
    // Forward in one chunk vs. reversed in interleaved slices.
    a.promote(&union);
    let rev: Vec<HostId> = union.iter().rev().copied().collect();
    for chunk in rev.chunks(7) {
        b.promote(chunk);
    }
    assert_eq!(a.resident_rows(), b.resident_rows());
    for (x, y) in pairs(200, 11) {
        assert_eq!(
            a.latency_ms(x, y).to_bits(),
            b.latency_ms(x, y).to_bits(),
            "promotion order changed the answer at ({}, {})",
            x.0,
            y.0
        );
    }
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sa.evictions, 0);
    assert_eq!(sb.evictions, 0);
}
