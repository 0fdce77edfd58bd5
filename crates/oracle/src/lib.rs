//! # oracle — tiered latency estimation from bounded knowledge
//!
//! The exact [`netsim::LatencyMatrix`] needs the whole router graph
//! solved: one Dijkstra row per host-attached router. No deployed pool
//! has that — the paper's hosts estimate latency from coordinates and a
//! few measurements. This crate builds a **tiered oracle** from that
//! bounded knowledge:
//!
//! * **hot tier** — a bounded, deterministic LRU of exact Dijkstra rows
//!   fetched on demand (from the network's kernel in a pool, from the
//!   router graph otherwise); rows are promoted
//!   explicitly, one batch per plan — candidate helpers first, session
//!   members last, so the members' rows are the ones kept — never as a
//!   lookup side effect.
//! * **sketch tier** — exact host↔landmark latencies
//!   ([`LandmarkSketch`]) whose triangle bounds answer mid-tier pairs
//!   when the interval pinches tightly enough. Stored factored like the
//!   exact kernel: one L-entry row per router plus per-host router and
//!   last-hop tables (`R·L·8 + L·4 + N·12` bytes). The per-host tables
//!   are the `HostSet`'s own shared columns, which neither the sketch
//!   nor the oracle copies; every entry is bit-identical to the kernel's
//!   answer for that pair.
//! * **base tier** — GNP coordinate distances from `crates/coords`
//!   (§4.1; in a pool, the pool's own store), clamped into the sketch bounds.
//!
//! What the tiered oracle holds is `O(L·R + N + hot_rows·R + N·dim)`:
//! 12 B per host (the host set's columns, kept alive) plus its
//! coordinates, and per-router tables.
//!
//! [`PoolOracle`] is the enum the pool plans through; its `Exact` arm
//! is a handle on the exact kernel ([`netsim::LatencyMatrix`]), so
//! `LatencySource::Exact` plans are bit-identical to the historical
//! dense-matrix planner.

pub mod sketch;
pub mod tiered;

use netsim::{HostId, LatencyMatrix, LatencyModel};

pub use sketch::{LandmarkProbes, LandmarkSketch};
pub use tiered::{TierStats, TieredConfig, TieredOracle};

/// Which latency oracle the pool builds and plans through.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum LatencySource {
    /// The exact kernel ([`LatencyMatrix`]), the default: plans are
    /// bit-identical to the historical dense-matrix planner.
    #[default]
    Exact,
    /// The tiered oracle; the exact kernel is still *built* by
    /// `Network::generate` for evaluation (and feeds the hot tier its
    /// rows), but planning reads go through the tiers.
    Tiered(TieredConfig),
}

/// The oracle a `ResourcePool` plans through: a closed enum (rather than
/// a trait object) so the Exact arm keeps static dispatch on the
/// planner's hottest loop and stays bit-identical to the exact kernel.
#[derive(Clone, Debug)]
pub enum PoolOracle {
    Exact(LatencyMatrix),
    Tiered(TieredOracle),
}

impl PoolOracle {
    /// A handle over the same underlying state: Exact is a zero-copy
    /// Arc share; Tiered shares the hot tier and counters (see
    /// [`TieredOracle::share`]). `Clone`, by contrast, deep-copies the
    /// tiered oracle's mutable state.
    pub fn share(&self) -> PoolOracle {
        match self {
            PoolOracle::Exact(m) => PoolOracle::Exact(m.clone()),
            PoolOracle::Tiered(t) => PoolOracle::Tiered(t.share()),
        }
    }

    /// Promote hosts' router rows into the hot tier (no-op for Exact).
    pub fn promote(&self, hosts: &[HostId]) {
        if let PoolOracle::Tiered(t) = self {
            t.promote(hosts);
        }
    }

    /// One plan's promotion, candidates first and members last
    /// ([`TieredOracle::promote_plan`]; no-op for Exact).
    pub fn promote_plan(&self, candidates: &[HostId], members: &[HostId]) {
        if let PoolOracle::Tiered(t) = self {
            t.promote_plan(candidates, members);
        }
    }

    /// Tier counters, if this oracle is tiered.
    pub fn tier_stats_opt(&self) -> Option<TierStats> {
        match self {
            PoolOracle::Exact(_) => None,
            PoolOracle::Tiered(t) => Some(t.stats()),
        }
    }

    /// Rows resident in the hot tier (0 for Exact).
    pub fn resident_rows(&self) -> usize {
        match self {
            PoolOracle::Exact(_) => 0,
            PoolOracle::Tiered(t) => t.resident_rows(),
        }
    }

    /// Bytes resident in the oracle's backing storage: the factored
    /// kernel's `A(A+1)/2·4 + N·16 + A·4` for Exact, every tier for Tiered.
    pub fn resident_bytes(&self) -> usize {
        match self {
            PoolOracle::Exact(m) => m.resident_bytes(),
            PoolOracle::Tiered(t) => t.resident_bytes(),
        }
    }
}

impl LatencyModel for PoolOracle {
    #[inline]
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        match self {
            PoolOracle::Exact(m) => m.latency_ms(a, b),
            PoolOracle::Tiered(t) => t.latency_ms(a, b),
        }
    }

    #[inline]
    fn num_hosts(&self) -> usize {
        match self {
            PoolOracle::Exact(m) => m.num_hosts(),
            PoolOracle::Tiered(t) => t.num_hosts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coords::{CoordStore, GnpConfig, GnpSolver};
    use netsim::hosts::HostSet;
    use netsim::topology::TransitStubConfig;
    use netsim::RouterNet;
    use proptest::prelude::*;

    fn small_world(n: usize, seed: u64) -> (RouterNet, HostSet) {
        let net = RouterNet::generate(&TransitStubConfig::default(), seed);
        let hosts = HostSet::attach(&net, n, (3.0, 8.0), seed.wrapping_add(1));
        (net, hosts)
    }

    fn tiered(
        net: &RouterNet,
        hosts: &HostSet,
        cfg: &TieredConfig,
        seed: u64,
    ) -> (TieredOracle, LatencyMatrix) {
        let lms = LandmarkSketch::default_landmarks(hosts.len(), cfg.landmarks, seed);
        let sketch = LandmarkSketch::build(net, hosts, &lms);
        let coords = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
            &sketch.probes(),
            &lms,
            seed.wrapping_add(9),
        );
        let matrix = LatencyMatrix::build(net, hosts);
        (TieredOracle::new(net, hosts, coords, sketch, cfg), matrix)
    }

    #[test]
    fn zero_diagonal_symmetry_nonnegative_no_nan() {
        let (net, hosts) = small_world(200, 11);
        let (oracle, _) = tiered(&net, &hosts, &TieredConfig::default(), 11);
        oracle.promote(&[HostId(0), HostId(1), HostId(2)]);
        for a in 0..hosts.len() as u32 {
            for b in a..hosts.len() as u32 {
                let ab = oracle.latency_ms(HostId(a), HostId(b));
                let ba = oracle.latency_ms(HostId(b), HostId(a));
                assert_eq!(ab.to_bits(), ba.to_bits(), "asymmetric at ({a},{b})");
                assert!(ab >= 0.0 && ab.is_finite());
                if a == b {
                    assert_eq!(ab, 0.0);
                }
            }
        }
    }

    #[test]
    fn hot_tier_bit_identical_to_matrix_after_promote() {
        let (net, hosts) = small_world(150, 5);
        let (oracle, matrix) = tiered(&net, &hosts, &TieredConfig::default(), 5);
        let members: Vec<HostId> = (0..40).map(HostId).collect();
        oracle.promote(&members);
        for &a in &members {
            for &b in &members {
                let got = oracle.latency_ms(a, b);
                let want = matrix.latency_ms(a, b);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "hot tier diverges from matrix at ({}, {})",
                    a.0,
                    b.0
                );
            }
        }
        let s = oracle.stats();
        assert_eq!(s.sketch + s.base, 0, "promoted pairs must all answer hot");
        assert_eq!(s.hot, 40 * 40 - 40, "off-diagonal pairs counted once each");
    }

    #[test]
    fn estimates_respect_sketch_bounds_vs_exact_matrix() {
        // The f32 slack mirrors netsim's triangle-inequality test: the
        // sketch stores f32-rounded entries, so bounds can be violated
        // by accumulated final roundings only.
        const SLACK: f64 = 1e-3;
        let (net, hosts) = small_world(300, 23);
        let (oracle, matrix) = tiered(&net, &hosts, &TieredConfig::default(), 23);
        for a in 0..hosts.len() as u32 {
            for b in (a + 1)..hosts.len() as u32 {
                let (lo, up) = oracle_sketch_bounds(&net, &hosts, a, b, 23);
                let exact = matrix.latency_ms(HostId(a), HostId(b));
                assert!(
                    exact >= lo - SLACK && exact <= up + SLACK,
                    "exact {exact} outside [{lo}, {up}] at ({a},{b})"
                );
                let est = oracle.latency_ms(HostId(a), HostId(b));
                assert!(
                    est >= lo - SLACK && est <= up + SLACK,
                    "estimate {est} outside [{lo}, {up}] at ({a},{b})"
                );
            }
        }
    }

    fn oracle_sketch_bounds(
        net: &RouterNet,
        hosts: &HostSet,
        a: u32,
        b: u32,
        seed: u64,
    ) -> (f64, f64) {
        let lms =
            LandmarkSketch::default_landmarks(hosts.len(), TieredConfig::default().landmarks, seed);
        let sketch = LandmarkSketch::build(net, hosts, &lms);
        sketch.bounds(HostId(a), HostId(b))
    }

    #[test]
    fn lru_eviction_deterministic_and_capacity_bounded() {
        let (net, hosts) = small_world(400, 7);
        let cfg = TieredConfig {
            hot_rows: 8,
            ..TieredConfig::default()
        };
        let run = || {
            let (oracle, _) = tiered(&net, &hosts, &cfg, 7);
            // Promote far more distinct routers than capacity: one batch
            // into an empty tier copies in only the 8 rows it keeps.
            let all: Vec<HostId> = hosts.ids().collect();
            oracle.promote(&all);
            assert_eq!(oracle.resident_rows(), 8);
            assert_eq!(
                (oracle.stats().promotions, oracle.stats().evictions),
                (8, 0)
            );
            // A second batch evicts the first one's rows.
            let odd: Vec<HostId> = all.iter().copied().filter(|h| h.0 % 2 == 1).collect();
            oracle.promote(&odd);
            assert_eq!(oracle.resident_rows(), 8);
            let mut sample = Vec::new();
            for a in (0..400u32).step_by(13) {
                for b in (1..400u32).step_by(17) {
                    sample.push(oracle.latency_ms(HostId(a), HostId(b)).to_bits());
                }
            }
            (sample, oracle.stats())
        };
        let (s1, st1) = run();
        let (s2, st2) = run();
        assert_eq!(s1, s2, "repeated runs must be bit-identical");
        assert_eq!(st1, st2);
        assert!(st1.evictions > 0, "test must actually exercise eviction");
    }

    #[test]
    fn share_accumulates_clone_diverges() {
        let (net, hosts) = small_world(120, 3);
        let (oracle, _) = tiered(&net, &hosts, &TieredConfig::default(), 3);
        let shared = oracle.share();
        shared.promote(&[HostId(5)]);
        assert_eq!(oracle.resident_rows(), shared.resident_rows());
        oracle.latency_ms(HostId(1), HostId(2));
        assert_eq!(oracle.stats().total(), shared.stats().total());

        let cloned = oracle.clone();
        cloned.promote(&hosts.ids().collect::<Vec<_>>());
        assert!(cloned.resident_rows() > oracle.resident_rows());
        cloned.latency_ms(HostId(3), HostId(4));
        assert!(cloned.stats().total() > oracle.stats().total());
    }

    #[test]
    fn nan_coords_degrade_to_lower_bound() {
        let (net, hosts) = small_world(100, 13);
        let lms = LandmarkSketch::default_landmarks(hosts.len(), 4, 13);
        let sketch = LandmarkSketch::build(&net, &hosts, &lms);
        let mut coords = CoordStore::zeros(hosts.len(), 2);
        for h in hosts.ids() {
            coords.set(h, coords::Coord::from_slice(&[f64::NAN; 2]));
        }
        let cfg = TieredConfig {
            tightness: 1.0, // force base-tier traffic
            hot_rows: 0,
            landmarks: 4,
        };
        let oracle = TieredOracle::new(&net, &hosts, coords, sketch.clone(), &cfg);
        for a in 0..20u32 {
            for b in (a + 1)..20u32 {
                let v = oracle.latency_ms(HostId(a), HostId(b));
                assert!(v.is_finite() && v >= 0.0);
                let (lo, up) = sketch.bounds(HostId(a), HostId(b));
                // NaN coords answer lo exactly (when not pinched) —
                // never NaN out of the oracle.
                assert!(v >= lo - 1e-9 && v <= up + 1e-9);
            }
        }
    }

    #[test]
    fn exact_arm_shares_the_kernel_and_reports_factored_bytes() {
        let (net, hosts) = small_world(64, 1);
        let matrix = LatencyMatrix::build(&net, &hosts);
        let po = PoolOracle::Exact(matrix.clone());
        // A(A+1)/2·4 + N·16 + A·4: the host-attached routers' distances,
        // each stored once, the host entries and the slot table.
        let mut attached = hosts.routers().to_vec();
        attached.sort_unstable();
        attached.dedup();
        let a = attached.len();
        assert_eq!(po.resident_bytes(), a * (a + 1) / 2 * 4 + 64 * 16 + a * 4);
        // The rows the hot tier gathers out of the kernel: every attached
        // column is the router graph's own Dijkstra distance.
        for (id, h) in hosts.iter() {
            let (row, reference) = (matrix.router_row(id), net.graph.dijkstra(h.router.0));
            for &r in &attached {
                assert_eq!(row[r as usize].to_bits(), reference[r as usize].to_bits());
            }
        }
        assert_eq!(po.tier_stats_opt(), None);
        for a in 0..64u32 {
            for b in 0..64u32 {
                assert_eq!(
                    po.latency_ms(HostId(a), HostId(b)).to_bits(),
                    matrix.latency_ms(HostId(a), HostId(b)).to_bits()
                );
            }
        }
    }

    #[test]
    fn tiered_resident_bytes_far_below_dense() {
        let (net, hosts) = small_world(2048, 17);
        let (oracle, _) = tiered(&net, &hosts, &TieredConfig::default(), 17);
        oracle.promote(&hosts.ids().take(256).collect::<Vec<_>>());
        let dense = 2048usize * 2048 * 4;
        let ours = TieredOracle::resident_bytes(&oracle);
        assert!(
            ours * 20 < dense,
            "tiered footprint {ours} not under 5% of dense {dense}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Tiered estimates stay within the landmark triangle bounds of
        // the exact matrix value for random pairs, seeds and configs.
        #[test]
        fn prop_estimates_within_bounds(
            seed in 0u64..500,
            tightness in 1.0f64..2.0,
            hot_rows in 0usize..16,
        ) {
            const SLACK: f64 = 1e-3;
            let (net, hosts) = small_world(120, seed);
            let cfg = TieredConfig { hot_rows, landmarks: 8, tightness };
            let lms = LandmarkSketch::default_landmarks(hosts.len(), cfg.landmarks, seed);
            let sketch = LandmarkSketch::build(&net, &hosts, &lms);
            let coords = GnpSolver::new(GnpConfig::default())
                .solve_with_landmarks(&sketch.probes(), &lms, seed.wrapping_add(9));
            let matrix = LatencyMatrix::build(&net, &hosts);
            let oracle = TieredOracle::new(&net, &hosts, coords, sketch.clone(), &cfg);
            oracle.promote(&(0..10).map(HostId).collect::<Vec<_>>());
            for a in 0..40u32 {
                for b in (a+1)..40u32 {
                    let (lo, up) = sketch.bounds(HostId(a), HostId(b));
                    let est = oracle.latency_ms(HostId(a), HostId(b));
                    let exact = matrix.latency_ms(HostId(a), HostId(b));
                    prop_assert!(est >= lo - SLACK && est <= up + SLACK,
                        "est {} outside [{}, {}]", est, lo, up);
                    prop_assert!(exact >= lo - SLACK && exact <= up + SLACK,
                        "exact {} outside [{}, {}]", exact, lo, up);
                }
            }
        }

        // LRU state after a promotion sequence is a pure function of
        // the sequence (seed-stable, bit-identical repeats).
        #[test]
        fn prop_lru_seed_stable(seed in 0u64..500) {
            let (net, hosts) = small_world(200, seed);
            let cfg = TieredConfig { hot_rows: 4, landmarks: 4, tightness: 1.25 };
            let lms = LandmarkSketch::default_landmarks(hosts.len(), 4, seed);
            let sketch = LandmarkSketch::build(&net, &hosts, &lms);
            let run = || {
                let oracle = TieredOracle::new(
                    &net, &hosts, CoordStore::zeros(hosts.len(), 2), sketch.clone(), &cfg);
                oracle.promote(&hosts.ids().collect::<Vec<_>>());
                let mut out = Vec::new();
                for a in (0..200u32).step_by(7) {
                    for b in (3..200u32).step_by(11) {
                        out.push(oracle.latency_ms(HostId(a), HostId(b)).to_bits());
                    }
                }
                (out, oracle.stats())
            };
            prop_assert_eq!(run(), run());
        }
    }
}
