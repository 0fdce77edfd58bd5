//! Landmark distance sketches: per-host vectors of exact latencies to a
//! small set of landmark hosts, plus the triangle-inequality bounds they
//! imply for arbitrary pairs.
//!
//! A sketch costs `L × N × 4` bytes (L landmarks, N hosts) — 8 MB at
//! N=131072 with the default L=16 — and needs only L hosts' measurements,
//! not the router graph. Each stored entry is computed with the *same*
//! arithmetic as [`netsim::LatencyMatrix`] (`(last_hop_a + router_d as
//! f64 + last_hop_b) as f32`), so landmark rows are bit-identical to the
//! kernel's answers for those rows.

use std::sync::Arc;

use netsim::hosts::HostSet;
use netsim::{HostId, LatencyModel, RouterNet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-landmark exact distance vectors for every host, stored SoA:
/// `dist[l * n + i]` is the exact host-to-host latency between landmark
/// `l` and host `i`.
#[derive(Clone, Debug)]
pub struct LandmarkSketch {
    n: usize,
    lm_hosts: Arc<[u32]>,
    dist: Arc<[f32]>,
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

    /// Build the sketch from the router topology: one Dijkstra per
    /// distinct landmark router, then one matrix-arithmetic fill per
    /// (landmark, host) pair. Never materializes anything O(N²).
    ///
    /// # Panics
    /// If a landmark id is out of range or the underlay is disconnected
    /// (a stored distance would be non-finite).
    pub fn build(net: &RouterNet, hosts: &HostSet, landmarks: &[HostId]) -> LandmarkSketch {
        let n = hosts.len();
        let lm_hosts: Vec<u32> = landmarks.iter().map(|h| h.0).collect();
        let mut dist = vec![0.0f32; lm_hosts.len() * n];
        for (l, &lm) in lm_hosts.iter().enumerate() {
            let lh = hosts.get(HostId(lm));
            let row = net.graph.dijkstra(lh.router.0);
            let out = &mut dist[l * n..(l + 1) * n];
            for (i, slot) in out.iter_mut().enumerate() {
                let h = hosts.get(HostId(i as u32));
                let router_d = if i as u32 == lm {
                    // Zero diagonal by contract, even though the
                    // Dijkstra row would also give 0 here.
                    *slot = 0.0;
                    continue;
                } else {
                    row[h.router.0 as usize]
                };
                // Exact same expression as LatencyMatrix::latency_ms, so
                // the stored f32 is bit-identical to the kernel's answer.
                let v = (lh.last_hop_ms + f64::from(router_d) + h.last_hop_ms) as f32;
                assert!(
                    v.is_finite(),
                    "disconnected underlay: landmark {lm} -> host {i}"
                );
                *slot = v;
            }
        }
        LandmarkSketch {
            n,
            lm_hosts: lm_hosts.into(),
            dist: dist.into(),
        }
    }

    /// Number of hosts covered by the sketch.
    pub fn num_hosts(&self) -> usize {
        self.n
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.lm_hosts.len()
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
        let mut lo = 0.0f64;
        let mut up = f64::INFINITY;
        for l in 0..self.lm_hosts.len() {
            let da = f64::from(self.dist[l * self.n + a]);
            let db = f64::from(self.dist[l * self.n + b]);
            lo = lo.max((da - db).abs());
            up = up.min(da + db);
        }
        (lo, up.max(lo))
    }

    /// Bytes resident in the sketch's owned storage.
    pub fn resident_bytes(&self) -> usize {
        self.dist.len() * 4 + self.lm_hosts.len() * 4
    }

    /// A [`LatencyModel`] view exposing exactly the measured pairs —
    /// any pair with at least one landmark endpoint — and panicking on
    /// everything else. This is sufficient for [`coords::GnpSolver`],
    /// which only probes landmark↔landmark and host↔landmark pairs, so
    /// GNP coordinates can be fit at any N without a dense matrix.
    pub fn probes(&self) -> LandmarkProbes {
        let mut lm_of = vec![u32::MAX; self.n];
        for (l, &h) in self.lm_hosts.iter().enumerate() {
            lm_of[h as usize] = l as u32;
        }
        LandmarkProbes {
            n: self.n,
            lm_of: lm_of.into(),
            dist: Arc::clone(&self.dist),
        }
    }
}

/// Partial latency model backed by a [`LandmarkSketch`]: exact values
/// for pairs touching a landmark, panic for anything else (no silent
/// approximation — callers that probe a non-landmark pair have a bug).
#[derive(Clone, Debug)]
pub struct LandmarkProbes {
    n: usize,
    /// host -> landmark row index, `u32::MAX` for non-landmarks.
    lm_of: Arc<[u32]>,
    dist: Arc<[f32]>,
}

impl LatencyModel for LandmarkProbes {
    fn num_hosts(&self) -> usize {
        self.n
    }

    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let la = self.lm_of[a.idx()];
        if la != u32::MAX {
            return f64::from(self.dist[la as usize * self.n + b.idx()]);
        }
        let lb = self.lm_of[b.idx()];
        assert!(
            lb != u32::MAX,
            "LandmarkProbes: pair ({}, {}) touches no landmark",
            a.0,
            b.0
        );
        f64::from(self.dist[lb as usize * self.n + a.idx()])
    }
}
