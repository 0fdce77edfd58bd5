//! Landmark distance sketches: exact latencies from every host to a small
//! set of landmark hosts, plus the triangle-inequality bounds they imply
//! for arbitrary pairs.
//!
//! Every sketch entry has the factored form of the exact kernel
//! ([`netsim::LatencyMatrix`]):
//! `(last_hop[l] + D[router(l)][router(i)] + last_hop[i]) as f32` for
//! landmark `l` and host `i`. So the sketch stores it factored, the way
//! the kernel does — a router-major table
//! `g[r·L + l] = last_hop[l] + f64::from(D[router(l)][r])` (L landmarks,
//! R routers), plus the per-host router and last-hop tables — and sums
//! per lookup. The host tables are the [`HostSet`]'s own `Arc`-shared
//! columns, read in place: the sketch, and the [`crate::TieredOracle`]
//! built over it, copy no per-host byte. The sketch keeps
//! `R·L·8 + L·4 + N·12` bytes alive, of which it allocates `R·L·8 + L·4`:
//! 1.65 MB at N = 131 072 with the default L = 16 on the 600-router
//! underlay (0.08 MB of it its own), where an `L × N` f32 table cost
//! 8.4 MB. It needs only L hosts' measurements, not all-pairs router
//! distances.
//!
//! **Why the pre-sum is bit-identical.** Floating-point addition is not
//! associative, so the operand order is part of the contract: the kernel
//! evaluates `(last_hop[l] + d) + last_hop[i]` left to right in f64 and
//! rounds to f32 once. `g` holds exactly the inner f64 sum, so
//! `(g[router(i)·L + l] + last_hop[i]) as f32` performs the same two
//! additions on the same operands in the same order — every entry equals
//! the kernel's answer for that pair bit for bit (a landmark's own entry
//! is 0 by contract). Storing `g` as f32, or summing `last_hop[l] +
//! last_hop[i]` first, would round differently.

use std::sync::Arc;

use netsim::hosts::HostSet;
use netsim::topology::RouterId;
use netsim::{DisconnectedUnderlay, HostId, LatencyModel, RouterNet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Exact landmark-to-host latencies for every host, kept factored: entry
/// `(l, i)` is `(g[router(i)·L + l] + last_hop[i]) as f32`, or 0 when host
/// `i` is landmark `l`.
#[derive(Clone, Debug)]
pub struct LandmarkSketch {
    /// Router-major: `g[r·L + l]` is landmark `l`'s last hop plus the
    /// router distance from its router to router `r`, summed in f64.
    g: Arc<[f64]>,
    lm_hosts: Arc<[u32]>,
    host_router: Arc<[u32]>,
    last_hop: Arc<[f64]>,
}

impl LandmarkSketch {
    /// Deterministic landmark selection: a seeded shuffle of all host
    /// ids, truncated to `count`. Matches the GNP solver's idiom so a
    /// bench can share one landmark set between the sketch and the
    /// coordinate fit.
    pub fn default_landmarks(n: usize, count: usize, seed: u64) -> Vec<HostId> {
        let mut all: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        all.shuffle(&mut rng);
        all.truncate(count.min(n));
        all.into_iter().map(HostId).collect()
    }

    /// Build the sketch; panics on a [`DisconnectedUnderlay`] (see
    /// [`Self::try_build`]).
    ///
    /// # Panics
    /// Also if a landmark id is out of range.
    pub fn build(net: &RouterNet, hosts: &HostSet, landmarks: &[HostId]) -> LandmarkSketch {
        Self::try_build(net, hosts, landmarks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the sketch from the router topology: one Dijkstra per
    /// landmark, each filling one column of the router-major table, and
    /// one pass over the hosts for the host tables. Never materializes
    /// anything O(N²) or O(N·L). Errs if a host-attached router is
    /// unreachable from a landmark's router (a stored distance would be
    /// infinite).
    ///
    /// # Panics
    /// If a landmark id is out of range.
    pub fn try_build(
        net: &RouterNet,
        hosts: &HostSet,
        landmarks: &[HostId],
    ) -> Result<LandmarkSketch, DisconnectedUnderlay> {
        let (routers, l_count) = (net.graph.len(), landmarks.len());
        // The host set's own columns, shared: no per-host byte is copied.
        let host_router = Arc::clone(hosts.routers());
        let last_hop = Arc::clone(hosts.last_hops());
        let mut attached = vec![false; routers];
        for &r in host_router.iter() {
            attached[r as usize] = true;
        }
        // Filled where it stays, like the kernel's rows.
        let mut g: Arc<[f64]> = std::iter::repeat_n(0f64, routers * l_count).collect();
        let filled = Arc::get_mut(&mut g).expect("no other handle exists yet");
        for (l, &lm) in landmarks.iter().enumerate() {
            let (lm_router, lm_last_hop) = (host_router[lm.idx()], last_hop[lm.idx()]);
            let row = net.graph.dijkstra(lm_router);
            for (r, &d) in row.iter().enumerate() {
                if attached[r] && !d.is_finite() {
                    return Err(DisconnectedUnderlay {
                        from: RouterId(lm_router),
                        to: RouterId(r as u32),
                    });
                }
                // The inner sum of the kernel's `(last_hop_a + d) + last_hop_b`.
                filled[r * l_count + l] = lm_last_hop + f64::from(d);
            }
        }
        Ok(LandmarkSketch {
            g,
            lm_hosts: landmarks.iter().map(|h| h.0).collect(),
            host_router,
            last_hop,
        })
    }

    /// Number of hosts covered by the sketch.
    pub fn num_hosts(&self) -> usize {
        self.host_router.len()
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.lm_hosts.len()
    }

    /// Every host's router, indexed by host id: the host set's column.
    pub(crate) fn host_router(&self) -> &Arc<[u32]> {
        &self.host_router
    }

    /// Every host's last-hop latency, indexed by host id: the host set's
    /// column.
    pub(crate) fn last_hop(&self) -> &Arc<[f64]> {
        &self.last_hop
    }

    /// The L entries of router `r`'s row of `g`.
    #[inline]
    fn row(&self, r: u32) -> &[f64] {
        let l_count = self.lm_hosts.len();
        &self.g[r as usize * l_count..][..l_count]
    }

    /// Landmark `l`'s exact latency to host `i`.
    fn entry_at(&self, l: usize, i: usize) -> f64 {
        let g = self.row(self.host_router[i])[l];
        entry(self.lm_hosts[l], i, g, self.last_hop[i])
    }

    /// Triangle bounds for the pair `(a, b)`, widened to f64:
    /// `lo = max_l |d(a,l) - d(b,l)|`, `up = min_l (d(a,l) + d(b,l))`,
    /// with `up` clamped to at least `lo` so f32 rounding can never
    /// produce an inverted interval. The exact latency lies in
    /// `[lo, up]` up to f32 rounding of the stored entries.
    pub fn bounds(&self, a: HostId, b: HostId) -> (f64, f64) {
        self.bounds_idx(a.idx(), b.idx())
    }

    pub(crate) fn bounds_idx(&self, a: usize, b: usize) -> (f64, f64) {
        let (ga, gb) = (self.row(self.host_router[a]), self.row(self.host_router[b]));
        let (ha, hb) = (self.last_hop[a], self.last_hop[b]);
        let mut lo = 0.0f64;
        let mut up = f64::INFINITY;
        // Compare-and-keep rather than `f64::max` / `min`: one instruction
        // each on the loop's dependency chain instead of a NaN-handling
        // sequence. Both skip a NaN operand and no entry is -0.0, so the
        // answers are the same.
        for ((&lm, &xa), &xb) in self.lm_hosts.iter().zip(ga).zip(gb) {
            let da = entry(lm, a, xa, ha);
            let db = entry(lm, b, xb, hb);
            let (d, s) = ((da - db).abs(), da + db);
            if d > lo {
                lo = d;
            }
            if s < up {
                up = s;
            }
        }
        (lo, up.max(lo))
    }

    /// Bytes the sketch keeps alive: `R·L·8 + L·4 + N·12`. The `N·12` are
    /// the host set's router and last-hop columns, shared, not copied: a
    /// sketch built over a `HostSet` allocates only `R·L·8 + L·4`.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.g)
            + std::mem::size_of_val(&*self.lm_hosts)
            + std::mem::size_of_val(&*self.host_router)
            + std::mem::size_of_val(&*self.last_hop)
    }

    /// A [`LatencyModel`] view exposing exactly the measured pairs —
    /// any pair with at least one landmark endpoint — and panicking on
    /// everything else. This is sufficient for [`coords::GnpSolver`],
    /// which only probes landmark↔landmark and host↔landmark pairs, so
    /// GNP coordinates can be fit at any N without a dense matrix.
    pub fn probes(&self) -> LandmarkProbes {
        LandmarkProbes(self.clone())
    }
}

/// Landmark `lm`'s latency to host `i`, from `g`'s entry at `i`'s router
/// and `i`'s last hop: the kernel's rounding, and 0 for the landmark itself.
#[inline]
fn entry(lm: u32, i: usize, g: f64, last_hop: f64) -> f64 {
    if lm as usize == i {
        0.0
    } else {
        f64::from((g + last_hop) as f32)
    }
}

/// Partial latency model backed by a [`LandmarkSketch`]: exact values
/// for pairs touching a landmark, panic for anything else (no silent
/// approximation — callers that probe a non-landmark pair have a bug).
#[derive(Clone, Debug)]
pub struct LandmarkProbes(LandmarkSketch);

impl LandmarkProbes {
    /// The landmark index of host `h`, if it is one: a scan of the L ids.
    fn landmark(&self, h: HostId) -> Option<usize> {
        self.0.lm_hosts.iter().position(|&lm| lm == h.0)
    }
}

impl LatencyModel for LandmarkProbes {
    fn num_hosts(&self) -> usize {
        self.0.num_hosts()
    }

    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        if let Some(la) = self.landmark(a) {
            return self.0.entry_at(la, b.idx());
        }
        let lb = self.landmark(b).unwrap_or_else(|| {
            panic!(
                "LandmarkProbes: pair ({}, {}) touches no landmark",
                a.0, b.0
            )
        });
        self.0.entry_at(lb, a.idx())
    }
}

/// The `L × N` sketch the factored one replaced, kept as the reference it
/// must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use netsim::topology::TransitStubConfig;

    /// `dist[l·n + i]`: landmark `l`'s latency to host `i`, filled with
    /// the historical per-entry expression.
    pub(crate) struct ReferenceSketch {
        n: usize,
        lm_hosts: Vec<u32>,
        dist: Vec<f32>,
    }

    pub(crate) fn reference_sketch(
        net: &RouterNet,
        hosts: &HostSet,
        landmarks: &[HostId],
    ) -> ReferenceSketch {
        let n = hosts.len();
        let lm_hosts: Vec<u32> = landmarks.iter().map(|h| h.0).collect();
        let mut dist = vec![0.0f32; lm_hosts.len() * n];
        for (l, &lm) in lm_hosts.iter().enumerate() {
            let lh = hosts.get(HostId(lm));
            let row = net.graph.dijkstra(lh.router.0);
            for (i, slot) in dist[l * n..(l + 1) * n].iter_mut().enumerate() {
                if i as u32 != lm {
                    let h = hosts.get(HostId(i as u32));
                    let router_d = row[h.router.0 as usize];
                    *slot = (lh.last_hop_ms + f64::from(router_d) + h.last_hop_ms) as f32;
                }
            }
        }
        ReferenceSketch { n, lm_hosts, dist }
    }

    impl ReferenceSketch {
        pub(crate) fn bounds(&self, a: HostId, b: HostId) -> (f64, f64) {
            let mut lo = 0.0f64;
            let mut up = f64::INFINITY;
            for l in 0..self.lm_hosts.len() {
                let da = f64::from(self.dist[l * self.n + a.idx()]);
                let db = f64::from(self.dist[l * self.n + b.idx()]);
                lo = lo.max((da - db).abs());
                up = up.min(da + db);
            }
            (lo, up.max(lo))
        }

        /// What `LandmarkProbes::latency_ms` answered: the row of `a` if it
        /// is a landmark (the last listed, for a landmark listed twice),
        /// else the row of `b`.
        pub(crate) fn probe(&self, a: HostId, b: HostId) -> f64 {
            if a == b {
                return 0.0;
            }
            let row = |h: HostId| self.lm_hosts.iter().rposition(|&lm| lm == h.0);
            match (row(a), row(b)) {
                (Some(la), _) => f64::from(self.dist[la * self.n + b.idx()]),
                (None, Some(lb)) => f64::from(self.dist[lb * self.n + a.idx()]),
                (None, None) => panic!("pair ({}, {}) touches no landmark", a.0, b.0),
            }
        }
    }

    /// A small world whose landmark set and pair list hold every case the
    /// factored arithmetic could get wrong: non-integral link weights,
    /// landmark endpoints, two landmarks on one router (when any router
    /// holds two hosts), hosts on a landmark's router and same-router
    /// pairs, besides `random` pairs. Hosts outnumber stub routers for
    /// some configurations, so routers holding many hosts are common.
    pub(crate) fn world(
        seed: u64,
        n: usize,
        landmarks: usize,
        random: &[(u32, u32)],
    ) -> (RouterNet, HostSet, Vec<HostId>, Vec<(HostId, HostId)>) {
        let cfg = TransitStubConfig {
            transit_domains: 1 + (seed % 2) as usize,
            transit_per_domain: 1 + (seed / 2 % 3) as usize,
            stub_domains_per_transit: 1 + (seed / 6 % 2) as usize,
            routers_per_stub: 1 + (seed / 12 % 3) as usize,
            intra_transit_ms: 20.0 + (seed % 97) as f64 * 1.037,
            stub_transit_ms: 7.0 + (seed % 13) as f64 * 0.731,
            intra_stub_ms: 1.0 + (seed % 29) as f64 * 0.417,
        };
        let net = RouterNet::generate(&cfg, seed);
        let hosts = HostSet::attach(&net, n, (3.0, 8.0), seed ^ 0x5eed);
        let mut lms = LandmarkSketch::default_landmarks(n, landmarks, seed);
        let router = |h: HostId| hosts.get(h).router;
        // Make the last landmark share the first one's router.
        if lms.len() >= 2 {
            if let Some(mate) = hosts
                .ids()
                .find(|&h| router(h) == router(lms[0]) && !lms.contains(&h))
            {
                *lms.last_mut().expect("two landmarks") = mate;
            }
        }
        let mut pairs: Vec<(HostId, HostId)> = random
            .iter()
            .map(|&(a, b)| (HostId(a % n as u32), HostId(b % n as u32)))
            .collect();
        for &lm in &lms {
            for h in hosts.ids() {
                if h == lm || router(h) == router(lm) {
                    pairs.push((lm, h));
                }
            }
        }
        for a in hosts.ids() {
            for b in hosts.ids().filter(|&b| b > a && router(b) == router(a)) {
                pairs.push((a, b));
            }
        }
        (net, hosts, lms, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{reference_sketch, world};
    use super::*;
    use netsim::graph::Graph;
    use netsim::topology::TransitStubConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Factored ≡ L × N, bit for bit: the bounds of every special and
        // random pair and every host↔landmark probe, in both argument
        // orders, for L ∈ {1, 2, 5, 16}.
        #[test]
        fn prop_factored_sketch_matches_the_l_by_n_reference(
            seed in 0u64..10_000,
            n in 2usize..160,
            l_pick in 0usize..4,
            random in proptest::collection::vec((0u32..1000, 0u32..1000), 0..64),
        ) {
            let landmarks = [1, 2, 5, 16][l_pick];
            let (net, hosts, lms, pairs) = world(seed, n, landmarks, &random);
            let sketch = LandmarkSketch::build(&net, &hosts, &lms);
            let reference = reference_sketch(&net, &hosts, &lms);
            prop_assert_eq!(sketch.num_hosts(), n);
            prop_assert_eq!(sketch.num_landmarks(), lms.len());
            for &(a, b) in &pairs {
                for (p, q) in [(a, b), (b, a)] {
                    let (lo, up) = sketch.bounds(p, q);
                    let (rlo, rup) = reference.bounds(p, q);
                    prop_assert_eq!((lo.to_bits(), up.to_bits()), (rlo.to_bits(), rup.to_bits()));
                }
            }
            let probes = sketch.probes();
            for &lm in &lms {
                for h in hosts.ids() {
                    for (p, q) in [(lm, h), (h, lm)] {
                        prop_assert_eq!(
                            probes.latency_ms(p, q).to_bits(),
                            reference.probe(p, q).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resident_bytes_is_the_factored_formula() {
        let net = RouterNet::generate(&TransitStubConfig::default(), 4);
        let hosts = HostSet::attach(&net, 300, (3.0, 8.0), 5);
        let lms = LandmarkSketch::default_landmarks(300, 16, 6);
        let sketch = LandmarkSketch::build(&net, &hosts, &lms);
        assert_eq!(
            sketch.resident_bytes(),
            net.len() * 16 * 8 + 16 * 4 + 300 * 12
        );
        // No landmarks: the host tables alone, every pair unbounded.
        let empty = LandmarkSketch::build(&net, &hosts, &[]);
        assert_eq!(empty.resident_bytes(), 300 * 12);
        assert_eq!(empty.bounds(HostId(0), HostId(1)), (0.0, f64::INFINITY));
    }

    #[test]
    fn the_sketch_reads_the_host_sets_columns_in_place() {
        let net = RouterNet::generate(&TransitStubConfig::default(), 4);
        let hosts = HostSet::attach(&net, 300, (3.0, 8.0), 5);
        let sketch = LandmarkSketch::build(&net, &hosts, &[HostId(3), HostId(7)]);
        assert!(Arc::ptr_eq(sketch.host_router(), hosts.routers()));
        assert!(Arc::ptr_eq(sketch.last_hop(), hosts.last_hops()));
    }

    /// Every router an island: no landmark reaches another host's router.
    fn islands() -> (RouterNet, HostSet) {
        let mut net = RouterNet::generate(&TransitStubConfig::default(), 3);
        let hosts = HostSet::attach(&net, 20, (3.0, 8.0), 4);
        net.graph = Graph::with_nodes(net.len());
        (net, hosts)
    }

    #[test]
    fn disconnected_underlay_is_a_typed_error() {
        let (net, hosts) = islands();
        let lms = LandmarkSketch::default_landmarks(20, 4, 5);
        let err = LandmarkSketch::try_build(&net, &hosts, &lms).unwrap_err();
        // The first landmark's router is the search that fails, at the
        // lowest host-attached router other than its own.
        let from = hosts.get(lms[0]).router;
        let to = hosts
            .iter()
            .map(|(_, h)| h.router)
            .filter(|&r| r != from)
            .min()
            .expect("hosts sit on more than one router");
        assert_eq!((err.from, err.to), (from, to));
        assert!(err.to_string().contains("disconnected underlay"));
    }

    #[test]
    #[should_panic(expected = "disconnected underlay")]
    fn build_panics_on_a_disconnected_underlay() {
        let (net, hosts) = islands();
        LandmarkSketch::build(&net, &hosts, &[HostId(0)]);
    }
}
