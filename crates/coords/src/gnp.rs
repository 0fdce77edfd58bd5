//! GNP: landmark-based network coordinates (the Figure 4 baseline).
//!
//! GNP first solves the coordinates of a small set of well-distributed
//! *landmark* hosts from their measured pairwise latencies, then lets every
//! other host solve its own coordinate against the landmarks. Both phases
//! minimize the same absolute-error objective the paper uses,
//! `E = Σ |predicted − measured|`, with Nelder–Mead.
//!
//! The landmark phase is solved by block coordinate descent: several sweeps
//! in which each landmark's coordinate is re-optimized with the others held
//! fixed. This avoids one huge (landmarks × dim)-dimensional simplex, which
//! Nelder–Mead handles poorly, and converges in a handful of sweeps.

use netsim::{HostId, LatencyModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::simplex::{minimize, Simplex, SimplexOptions};
use crate::space::{abs_error, abs_error_lanes, Coord, CoordStore, DEFAULT_DIM, MAX_DIM};

/// Host fits each worker advances in lockstep: one call of
/// [`abs_error_lanes`] evaluates a point of each.
const LANES: usize = 8;

/// Configuration of a GNP run.
#[derive(Clone, Debug)]
pub struct GnpConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Number of landmark (infrastructure) hosts.
    pub landmarks: usize,
    /// Coordinate-descent sweeps over the landmark set.
    pub sweeps: usize,
    /// Simplex budget for each per-host minimization.
    pub simplex: SimplexOptions,
}

impl Default for GnpConfig {
    fn default() -> Self {
        GnpConfig {
            dim: DEFAULT_DIM,
            landmarks: 16,
            sweeps: 8,
            simplex: SimplexOptions {
                initial_step: 50.0,
                tolerance: 0.1,
                max_evals: 600,
            },
        }
    }
}

/// The GNP solver.
pub struct GnpSolver {
    cfg: GnpConfig,
}

impl GnpSolver {
    /// A solver with the given configuration.
    pub fn new(cfg: GnpConfig) -> GnpSolver {
        GnpSolver { cfg }
    }

    /// Solve coordinates for every host covered by `oracle`.
    ///
    /// `oracle` provides the measured latencies; landmark selection and
    /// all randomness derive from `seed`. The per-host fits run on every
    /// available core; the coordinates do not depend on how many.
    pub fn solve(&self, oracle: &(impl LatencyModel + Sync), seed: u64) -> CoordStore {
        let n = oracle.num_hosts();
        let lm_count = self.cfg.landmarks.min(n);
        assert!(lm_count >= 2, "GNP needs at least two landmarks");
        let mut rng = StdRng::seed_from_u64(seed);

        // Pick landmarks uniformly at random ("well-distributed" in
        // expectation on a transit-stub net).
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.shuffle(&mut rng);
        let landmarks: Vec<HostId> = all[..lm_count].iter().copied().map(HostId).collect();
        self.solve_landmarked(oracle, &landmarks, &mut rng)
    }

    /// Like [`GnpSolver::solve`], but with a caller-chosen landmark set
    /// (`cfg.landmarks` is ignored). This lets a partial oracle drive
    /// the fit: GNP only ever measures landmark↔landmark and
    /// host↔landmark pairs, so a model that knows just those — e.g. a
    /// landmark distance sketch — suffices, and coordinates can be
    /// solved at any N without a dense matrix.
    pub fn solve_with_landmarks(
        &self,
        oracle: &(impl LatencyModel + Sync),
        landmarks: &[HostId],
        seed: u64,
    ) -> CoordStore {
        assert!(landmarks.len() >= 2, "GNP needs at least two landmarks");
        let mut rng = StdRng::seed_from_u64(seed);
        self.solve_landmarked(oracle, landmarks, &mut rng)
    }

    fn solve_landmarked(
        &self,
        oracle: &(impl LatencyModel + Sync),
        landmarks: &[HostId],
        rng: &mut StdRng,
    ) -> CoordStore {
        let lm_coords = self.fit_landmarks(oracle, landmarks, rng);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.fit_hosts(oracle, landmarks, &lm_coords, cores)
    }

    /// Landmark phase: the landmarks' coordinates, `landmarks.len() × dim`
    /// landmark-major, from their measured pairwise latencies.
    fn fit_landmarks(
        &self,
        oracle: &impl LatencyModel,
        landmarks: &[HostId],
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let dim = self.cfg.dim;
        let lm_count = landmarks.len();

        // Measured landmark-to-landmark latencies.
        let mut lm_meas = vec![vec![0.0f64; lm_count]; lm_count];
        for i in 0..lm_count {
            for j in (i + 1)..lm_count {
                let m = oracle.latency_ms(landmarks[i], landmarks[j]);
                lm_meas[i][j] = m;
                lm_meas[j][i] = m;
            }
        }

        // Landmark phase: random init scaled to the measured diameter, then
        // block coordinate descent. Each update reads the coordinates its
        // predecessors just wrote, so the phase is inherently sequential.
        let scale = lm_meas
            .iter()
            .flat_map(|r| r.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1.0);
        // `lm_count × dim`, landmark-major.
        let mut lm_coords = Vec::with_capacity(lm_count * dim);
        for _ in 0..lm_count {
            lm_coords.extend_from_slice(random_coord(dim, scale / 2.0, &mut *rng).as_slice());
        }
        // The other landmarks' coordinates, dimension-major as `abs_error`
        // takes them.
        let k = lm_count - 1;
        let mut others = vec![0.0; k * dim];
        let mut meas = Vec::with_capacity(k);
        for _ in 0..self.cfg.sweeps {
            for i in 0..lm_count {
                meas.clear();
                for (slot, j) in (0..lm_count).filter(|&j| j != i).enumerate() {
                    for (d, &x) in lm_coords[j * dim..][..dim].iter().enumerate() {
                        others[d * k + slot] = x;
                    }
                    meas.push(lm_meas[i][j]);
                }
                let mine = &mut lm_coords[i * dim..][..dim];
                let r = minimize(|p| abs_error(p, &others, &meas), mine, self.cfg.simplex);
                mine.copy_from_slice(r.point());
            }
        }
        lm_coords
    }

    /// Host phase: every host (landmarks keep their solved coordinates)
    /// minimizes against the landmarks. One host's fit reads only the
    /// landmark coordinates and its own probes, so the hosts split across
    /// `workers` threads, each writing its own slice of the store, and
    /// each worker advances [`LANES`] fits in lockstep, one
    /// [`abs_error_lanes`] call per step; the result depends on neither.
    fn fit_hosts(
        &self,
        oracle: &(impl LatencyModel + Sync),
        landmarks: &[HostId],
        lm_coords: &[f64],
        workers: usize,
    ) -> CoordStore {
        let n = oracle.num_hosts();
        let dim = self.cfg.dim;
        let lm_count = landmarks.len();
        let mut store = CoordStore::zeros(n, dim);
        for (&lm, c) in landmarks.iter().zip(lm_coords.chunks_exact(dim)) {
            store.point_mut(lm).copy_from_slice(c);
        }
        let (start, lm_cols) = host_inputs(lm_coords, dim);
        let fit_chunk = |base: usize, slots: &mut [f64]| {
            // The chunk's hosts, landmarks skipped, taken one at a time as
            // lanes come free: nothing here is sized by the chunk.
            let mut hosts = (base..base + slots.len() / dim)
                .map(|h| HostId(h as u32))
                .filter(|h| !landmarks.contains(h));
            // Lane `l`'s probes to landmark `i` are `meas[i][l]`.
            let mut meas = vec![[0.0f64; LANES]; lm_count];
            let mut lanes: [Option<(HostId, Simplex)>; LANES] = std::array::from_fn(|_| None);
            // Each lane's next point, dimension-major. A finished lane
            // writes its host's slot and takes the next host; a lane left
            // without one keeps its last point, whose value nobody reads.
            let mut points = [[0.0f64; LANES]; MAX_DIM];
            loop {
                let mut running = false;
                for (l, lane) in lanes.iter_mut().enumerate() {
                    loop {
                        if let Some((h, fit)) = lane {
                            if let Some(p) = fit.ask() {
                                for (col, &x) in points.iter_mut().zip(p) {
                                    col[l] = x;
                                }
                                running = true;
                                break;
                            }
                            slots[(h.idx() - base) * dim..][..dim]
                                .copy_from_slice(fit.result().point());
                        }
                        *lane = hosts.next().map(|h| {
                            for (m, &lm) in meas.iter_mut().zip(landmarks) {
                                m[l] = oracle.latency_ms(h, lm);
                            }
                            (h, Simplex::new(&start[..dim], self.cfg.simplex))
                        });
                        if lane.is_none() {
                            break;
                        }
                    }
                }
                if !running {
                    break;
                }
                let values = abs_error_lanes(&points[..dim], &lm_cols, &meas);
                for (lane, v) in lanes.iter_mut().zip(values) {
                    if let Some((_, fit)) = lane {
                        fit.tell(v);
                    }
                }
            }
        };
        let per_worker = n.div_ceil(workers.max(1)).max(1);
        std::thread::scope(|s| {
            // The calling thread takes the first chunk itself, so a single
            // worker spawns nothing.
            let mut chunks = store.host_chunks_mut(per_worker).enumerate();
            let first = chunks.next();
            for (t, slots) in chunks {
                let fit_chunk = &fit_chunk;
                s.spawn(move || fit_chunk(t * per_worker, slots));
            }
            if let Some((_, slots)) = first {
                fit_chunk(0, slots);
            }
        });
        store
    }
}

/// What every host fit shares, from the landmark coordinates
/// (`landmarks × dim`, landmark-major): the start point, the landmarks'
/// centroid — a sane initial guess that keeps the simplex in the
/// populated region — and the landmark coordinates once more,
/// dimension-major as [`abs_error`] takes them.
fn host_inputs(lm_coords: &[f64], dim: usize) -> ([f64; MAX_DIM], Vec<f64>) {
    let lm_count = lm_coords.len() / dim;
    let mut start = [0.0f64; MAX_DIM];
    for lc in lm_coords.chunks_exact(dim) {
        for (s, &x) in start.iter_mut().zip(lc) {
            *s += x;
        }
    }
    for s in &mut start[..dim] {
        *s /= lm_count as f64;
    }
    let mut lm_cols = vec![0.0; lm_count * dim];
    for (l, lc) in lm_coords.chunks_exact(dim).enumerate() {
        for (d, &x) in lc.iter().enumerate() {
            lm_cols[d * lm_count + l] = x;
        }
    }
    (start, lm_cols)
}

/// A uniformly random point of the cube `[-scale, scale]^dim`.
pub(crate) fn random_coord(dim: usize, scale: f64, rng: &mut StdRng) -> Coord {
    let mut c = Coord::zero(dim);
    for x in c.as_mut_slice() {
        *x = scale * (2.0 * rng.random::<f64>() - 1.0);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{random_pairs, relative_error_cdf};
    use netsim::{Network, NetworkConfig, TransitStubConfig};

    fn small_net() -> Network {
        Network::generate(
            &NetworkConfig {
                topology: TransitStubConfig {
                    transit_domains: 2,
                    transit_per_domain: 3,
                    stub_domains_per_transit: 2,
                    routers_per_stub: 3,
                    ..TransitStubConfig::default()
                },
                num_hosts: 120,
                ..NetworkConfig::default()
            },
            21,
        )
    }

    #[test]
    fn gnp_embeds_transit_stub_reasonably() {
        let net = small_net();
        let store = GnpSolver::new(GnpConfig {
            landmarks: 16,
            sweeps: 5,
            ..Default::default()
        })
        .solve(&net.latency, 3);
        let pairs = random_pairs(net.num_hosts(), 800, 5);
        let cdf = relative_error_cdf(&net.latency, &store, &pairs);
        let median = cdf.quantile(0.5).unwrap();
        // GNP on transit-stub nets reaches ~10-20% median relative error;
        // accept anything clearly better than "no information".
        assert!(median < 0.35, "median relative error {median}");
    }

    #[test]
    fn more_landmarks_do_not_hurt_much() {
        let net = small_net();
        let pairs = random_pairs(net.num_hosts(), 600, 6);
        let med = |lm: usize| {
            let store = GnpSolver::new(GnpConfig {
                landmarks: lm,
                sweeps: 4,
                ..Default::default()
            })
            .solve(&net.latency, 9);
            relative_error_cdf(&net.latency, &store, &pairs)
                .quantile(0.5)
                .unwrap()
        };
        let m16 = med(16);
        let m32 = med(32);
        // The paper's point: GNP is not very sensitive to the landmark
        // count. Allow wide slack; both must be sane embeddings.
        assert!(m16 < 0.35 && m32 < 0.35, "m16={m16} m32={m32}");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = small_net();
        let cfg = GnpConfig {
            landmarks: 8,
            sweeps: 2,
            ..Default::default()
        };
        let a = GnpSolver::new(cfg.clone()).solve(&net.latency, 7);
        let b = GnpSolver::new(cfg).solve(&net.latency, 7);
        for h in (0..net.num_hosts() as u32).map(HostId) {
            assert_eq!(a.get(h), b.get(h));
        }
    }

    /// The first `.1` hosts of a latency model.
    struct Prefix<'a, M>(&'a M, usize);

    impl<M: LatencyModel> LatencyModel for Prefix<'_, M> {
        fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
            self.0.latency_ms(a, b)
        }

        fn num_hosts(&self) -> usize {
            self.1
        }
    }

    /// The host phase one host at a time, each a [`minimize`] call: the
    /// body the lockstep lanes replaced, kept as their reference.
    fn reference_fit_hosts(
        solver: &GnpSolver,
        oracle: &impl LatencyModel,
        landmarks: &[HostId],
        lm_coords: &[f64],
    ) -> CoordStore {
        let dim = solver.cfg.dim;
        let mut store = CoordStore::zeros(oracle.num_hosts(), dim);
        for (&lm, c) in landmarks.iter().zip(lm_coords.chunks_exact(dim)) {
            store.point_mut(lm).copy_from_slice(c);
        }
        let (start, lm_cols) = host_inputs(lm_coords, dim);
        let mut meas = vec![0.0f64; landmarks.len()];
        for (i, slot) in store.host_chunks_mut(1).enumerate() {
            let h = HostId(i as u32);
            if landmarks.contains(&h) {
                continue;
            }
            for (m, &lm) in meas.iter_mut().zip(landmarks) {
                *m = oracle.latency_ms(h, lm);
            }
            let r = minimize(
                |p| abs_error(p, &lm_cols, &meas),
                &start[..dim],
                solver.cfg.simplex,
            );
            slot.copy_from_slice(r.point());
        }
        store
    }

    #[test]
    fn host_phase_is_independent_of_the_worker_count() {
        let net = small_net();
        // At 120 hosts the chunks split 60/60, 40/40/40, 7 × 18 and one
        // per worker: landmarks sit on both sides of every one of those
        // cuts, and 3 and 7 sit inside the first batch of eight lanes and
        // in its last slot. The smaller host counts leave a worker's last
        // batch partial.
        let all = [0, 3, 7, 17, 18, 39, 40, 59, 60, 79, 80, 107, 108, 119].map(HostId);
        let solver = GnpSolver::new(GnpConfig {
            sweeps: 3,
            ..Default::default()
        });
        let dim = solver.cfg.dim;
        let bits = |store: &CoordStore, n: usize| {
            (0..n as u32)
                .flat_map(|h| store.point(HostId(h)))
                .map(|x| x.to_bits())
                .collect::<Vec<u64>>()
        };
        for n in [120, 83, 29, 10] {
            let oracle = Prefix(&net.latency, n);
            let landmarks: Vec<HostId> = all.iter().copied().filter(|h| h.idx() < n).collect();
            let lm_coords =
                solver.fit_landmarks(&oracle, &landmarks, &mut StdRng::seed_from_u64(5));
            let one = bits(
                &reference_fit_hosts(&solver, &oracle, &landmarks, &lm_coords),
                n,
            );
            for workers in [1, 2, 3, 7, n + 1] {
                let store = solver.fit_hosts(&oracle, &landmarks, &lm_coords, workers);
                assert_eq!(
                    bits(&store, n),
                    one,
                    "{n} hosts, {workers} workers: a coordinate moved"
                );
            }
            // Landmarks keep what the landmark phase gave them; everyone
            // else was fitted.
            for (h, point) in one.chunks_exact(dim).enumerate() {
                match landmarks.iter().position(|lm| lm.idx() == h) {
                    Some(l) => {
                        let lm: Vec<u64> = lm_coords[l * dim..][..dim]
                            .iter()
                            .map(|x| x.to_bits())
                            .collect();
                        assert_eq!(point, lm, "landmark {h} lost its coordinate");
                    }
                    None => assert!(point.iter().any(|&b| b != 0), "host {h} was never fitted"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_landmark() {
        let net = small_net();
        GnpSolver::new(GnpConfig {
            landmarks: 1,
            ..Default::default()
        })
        .solve(&net.latency, 0);
    }
}
