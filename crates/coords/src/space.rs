//! The coordinate space and the coordinate store.

use std::sync::Arc;

use netsim::{HostId, LatencyModel};
use serde::{Deserialize, Serialize};

/// Maximum embedding dimension supported without heap allocation.
pub const MAX_DIM: usize = 8;

/// Default embedding dimension (GNP found 5–7 dimensions sufficient; 5 is a
/// good accuracy/cost tradeoff for transit–stub underlays).
pub const DEFAULT_DIM: usize = 5;

/// A point in the d-dimensional Euclidean embedding (d ≤ [`MAX_DIM`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Coord {
    v: [f64; MAX_DIM],
    dim: u8,
}

impl Coord {
    /// The origin of a `dim`-dimensional space.
    pub fn zero(dim: usize) -> Coord {
        assert!((1..=MAX_DIM).contains(&dim));
        Coord {
            v: [0.0; MAX_DIM],
            dim: dim as u8,
        }
    }

    /// Construct from a slice (length = dimension).
    pub fn from_slice(v: &[f64]) -> Coord {
        assert!(!v.is_empty() && v.len() <= MAX_DIM);
        let mut arr = [0.0; MAX_DIM];
        arr[..v.len()].copy_from_slice(v);
        Coord {
            v: arr,
            dim: v.len() as u8,
        }
    }

    /// The coordinate components.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.v[..self.dim as usize]
    }

    /// Mutable components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.v[..self.dim as usize]
    }
}

/// Euclidean distance between two points of one dimension: the squared
/// differences accumulate in dimension order from `0.0`. Every distance in
/// the crate — the store's latencies and the fit's objective — is this one
/// expression, so they agree to the bit.
#[inline]
fn distance(a: &[f64], b: &[f64]) -> f64 {
    let mut s = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let diff = x - y;
        s += diff * diff;
    }
    s.sqrt()
}

/// Pairs per block of [`abs_error`]: each pair's distance is its own lane,
/// so a block's squares and square roots vectorise. The block size moves
/// no bit; eight timed fastest on the leafset fit (DESIGN §11.5).
const LANES: usize = 8;

/// The paper's fit objective `E(p) = Σ_i |dist(p, target_i) − measured_i|`.
/// `cols` holds the `k = measured.len()` targets dimension-major: component
/// `d` of target `i` is `cols[d·k + i]`. Each pair's distance is
/// [`distance`]'s expression — squares summed in dimension order from
/// `0.0`, then `sqrt` — carried in its own lane, so blocks of [`LANES`]
/// pairs compute side by side with the scalar bits; the error then
/// accumulates in pair order from `0.0`.
#[inline]
pub(crate) fn abs_error(p: &[f64], cols: &[f64], measured: &[f64]) -> f64 {
    let k = measured.len();
    debug_assert_eq!(cols.len(), p.len() * k);
    let mut e = 0.0;
    let blocked = k - k % LANES;
    for i in (0..blocked).step_by(LANES) {
        let mut s = [0.0f64; LANES];
        for (d, &x) in p.iter().enumerate() {
            let col: &[f64; LANES] = cols[d * k + i..][..LANES].try_into().unwrap();
            for (s, &y) in s.iter_mut().zip(col) {
                let diff = x - y;
                *s += diff * diff;
            }
        }
        // Every lane's term first, so the square roots vectorise too; then
        // the fold, in pair order.
        let m: &[f64; LANES] = measured[i..][..LANES].try_into().unwrap();
        let mut terms = [0.0f64; LANES];
        for ((t, s), &m) in terms.iter_mut().zip(s).zip(m) {
            *t = (s.sqrt() - m).abs();
        }
        for t in terms {
            e += t;
        }
    }
    for (i, &m) in measured.iter().enumerate().skip(blocked) {
        let mut s = 0.0;
        for (d, &x) in p.iter().enumerate() {
            let diff = x - cols[d * k + i];
            s += diff * diff;
        }
        e += (s.sqrt() - m).abs();
    }
    e
}

/// [`abs_error`] for `L` points at once, one point per lane, each against
/// its own measurements to the same targets. `points[d][l]` is component
/// `d` of lane `l`'s point (`points.len()` is the dimension) and
/// `measured[i][l]` lane `l`'s measurement to target `i`; `cols` holds the
/// targets dimension-major, as for [`abs_error`]. Each lane runs
/// [`abs_error`]'s operations in its order — squares summed in dimension
/// order from `0.0`, `sqrt`, `|· − m|` folded in target order from `0.0`
/// — and lanes never mix, so lane `l` of the result is, to the bit,
/// `abs_error` of lane `l`'s point; the lane arrays vectorise whole.
#[inline]
pub(crate) fn abs_error_lanes<const L: usize>(
    points: &[[f64; L]],
    cols: &[f64],
    measured: &[[f64; L]],
) -> [f64; L] {
    let k = measured.len();
    debug_assert_eq!(cols.len(), points.len() * k);
    let mut e = [0.0f64; L];
    for (i, m) in measured.iter().enumerate() {
        let mut s = [0.0f64; L];
        for (p, col) in points.iter().zip(cols.chunks_exact(k)) {
            let y = col[i];
            for (s, &x) in s.iter_mut().zip(p) {
                let diff = x - y;
                *s += diff * diff;
            }
        }
        for ((e, s), &m) in e.iter_mut().zip(s).zip(m) {
            *e += (s.sqrt() - m).abs();
        }
    }
    e
}

/// Coordinates for every host, usable directly as a [`LatencyModel`] — this
/// is what turns the paper's *Critical* algorithms into the practical
/// *Leafset* ones. Packed host-major: `dim` components per host and
/// nothing else, shared (`Arc`): a clone is O(1), and a write through a
/// shared handle copies the components first.
#[derive(Clone, Debug)]
pub struct CoordStore {
    /// `n × dim`, host-major.
    data: Arc<[f64]>,
    dim: usize,
}

impl CoordStore {
    /// A store with all hosts at the origin.
    pub fn zeros(n: usize, dim: usize) -> CoordStore {
        assert!((1..=MAX_DIM).contains(&dim));
        CoordStore {
            data: std::iter::repeat_n(0.0, n * dim).collect(),
            dim,
        }
    }

    /// The coordinate of a host.
    pub fn get(&self, h: HostId) -> Coord {
        Coord::from_slice(self.point(h))
    }

    /// Set the coordinate of a host.
    pub fn set(&mut self, h: HostId, c: Coord) {
        self.point_mut(h).copy_from_slice(c.as_slice());
    }

    /// The components of a host's coordinate.
    #[inline]
    pub fn point(&self, h: HostId) -> &[f64] {
        &self.data[h.idx() * self.dim..][..self.dim]
    }

    /// The components of a host's coordinate, writable (copied first if shared).
    #[inline]
    pub(crate) fn point_mut(&mut self, h: HostId) -> &mut [f64] {
        &mut Arc::make_mut(&mut self.data)[h.idx() * self.dim..][..self.dim]
    }

    /// The store cut into runs of `hosts` consecutive hosts' components
    /// (the last may be shorter): disjoint, so each can go to its own
    /// thread.
    pub(crate) fn host_chunks_mut(&mut self, hosts: usize) -> std::slice::ChunksMut<'_, f64> {
        Arc::make_mut(&mut self.data).chunks_mut(hosts * self.dim)
    }

    /// Bytes resident in the store (once, however many handles share it).
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.data)
    }
}

impl LatencyModel for CoordStore {
    #[inline]
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            0.0
        } else {
            distance(self.point(a), self.point(b))
        }
    }

    #[inline]
    fn num_hosts(&self) -> usize {
        self.data.len() / self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objective over targets packed point by point, one [`distance`]
    /// per pair: the layout [`abs_error`] had before it went
    /// dimension-major, kept as its reference.
    fn packed_abs_error(p: &[f64], targets: &[f64], measured: &[f64]) -> f64 {
        let mut e = 0.0;
        for (t, &m) in targets.chunks_exact(p.len()).zip(measured) {
            e += (distance(p, t) - m).abs();
        }
        e
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        // Every block remainder and k = 0, with targets that coincide with
        // the point (a zero distance) and zero measurements mixed in.
        #[test]
        fn prop_dimension_major_objective_is_the_packed_one_bit_for_bit(
            dim in 1usize..MAX_DIM + 1,
            k in 0usize..71,
            seed in 0u64..1_000_000,
            coincide in 0u32..4,
            zeros in 0u32..4,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let p: Vec<f64> = (0..dim).map(|_| rng.random_range(-300.0..300.0)).collect();
            let mut packed = Vec::with_capacity(k * dim);
            let mut measured = Vec::with_capacity(k);
            for _ in 0..k {
                if rng.random_range(0u32..4) < coincide {
                    packed.extend_from_slice(&p);
                } else {
                    packed.extend((0..dim).map(|_| rng.random_range(-300.0..300.0)));
                }
                let m = rng.random_range(0.0..500.0);
                measured.push(if rng.random_range(0u32..4) < zeros { 0.0 } else { m });
            }
            let mut cols = vec![0.0; k * dim];
            for (i, t) in packed.chunks_exact(dim).enumerate() {
                for (d, &x) in t.iter().enumerate() {
                    cols[d * k + i] = x;
                }
            }
            proptest::prop_assert_eq!(
                abs_error(&p, &cols, &measured).to_bits(),
                packed_abs_error(&p, &packed, &measured).to_bits()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        // Eight lanes over every dimension and k 0–70, with lanes that
        // coincide with a target (a zero distance) and zero measurements.
        #[test]
        fn prop_each_lane_is_the_scalar_objective_bit_for_bit(
            dim in 1usize..MAX_DIM + 1,
            k in 0usize..71,
            seed in 0u64..1_000_000,
            coincide in 0u32..4,
            zeros in 0u32..4,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            const L: usize = 8;
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<f64> = (0..k * dim).map(|_| rng.random_range(-300.0..300.0)).collect();
            let mut points = vec![[0.0f64; L]; dim];
            for l in 0..L {
                let on_target = k > 0 && rng.random_range(0u32..4) < coincide;
                let i = if k > 0 { rng.random_range(0..k) } else { 0 };
                for (d, col) in points.iter_mut().enumerate() {
                    col[l] = if on_target {
                        cols[d * k + i]
                    } else {
                        rng.random_range(-300.0..300.0)
                    };
                }
            }
            let measured: Vec<[f64; L]> = (0..k)
                .map(|_| {
                    std::array::from_fn(|_| {
                        let m = rng.random_range(0.0..500.0);
                        if rng.random_range(0u32..4) < zeros { 0.0 } else { m }
                    })
                })
                .collect();
            let got = abs_error_lanes(&points, &cols, &measured);
            for (l, e) in got.into_iter().enumerate() {
                let p: Vec<f64> = points.iter().map(|col| col[l]).collect();
                let m: Vec<f64> = measured.iter().map(|m| m[l]).collect();
                proptest::prop_assert_eq!(e.to_bits(), abs_error(&p, &cols, &m).to_bits());
            }
        }
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Coord::from_slice(&[0.0, 0.0, 0.0]);
        let b = Coord::from_slice(&[3.0, 4.0, 0.0]);
        assert!((distance(a.as_slice(), b.as_slice()) - 5.0).abs() < 1e-12);
        assert_eq!(distance(a.as_slice(), a.as_slice()), 0.0);
    }

    #[test]
    fn distance_symmetric() {
        let a = Coord::from_slice(&[1.0, -2.0, 0.5, 7.0, 3.3]);
        let b = Coord::from_slice(&[-4.0, 2.0, 9.5, 0.0, 1.0]);
        assert_eq!(
            distance(a.as_slice(), b.as_slice()),
            distance(b.as_slice(), a.as_slice())
        );
    }

    #[test]
    fn store_implements_latency_model() {
        let mut s = CoordStore::zeros(3, 2);
        s.set(HostId(1), Coord::from_slice(&[3.0, 4.0]));
        assert_eq!(s.latency_ms(HostId(0), HostId(1)), 5.0);
        assert_eq!(s.latency_ms(HostId(2), HostId(2)), 0.0);
        assert_eq!(s.num_hosts(), 3);
    }

    #[test]
    fn store_is_packed_and_round_trips() {
        let pts = [[1.0, 2.0, 3.0], [-4.0, 5.5, 0.0]].map(|p| Coord::from_slice(&p));
        let mut s = CoordStore::zeros(2, 3);
        s.set(HostId(0), pts[0]);
        s.set(HostId(1), pts[1]);
        assert_eq!(s.resident_bytes(), 2 * 3 * 8);
        assert_eq!((s.get(HostId(0)), s.get(HostId(1))), (pts[0], pts[1]));
        let shared = s.clone();
        assert!(
            Arc::ptr_eq(&s.data, &shared.data),
            "a clone shares the components"
        );
        s.set(HostId(0), pts[1]);
        assert_eq!(s.point(HostId(0)), pts[1].as_slice());
        assert_eq!(
            shared.point(HostId(0)),
            pts[0].as_slice(),
            "until one is written"
        );
        assert_eq!(CoordStore::zeros(7, 5).resident_bytes(), 7 * 5 * 8);
    }

    #[test]
    #[should_panic]
    fn store_rejects_a_coordinate_of_another_dimension() {
        CoordStore::zeros(2, 3).set(HostId(0), Coord::from_slice(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic]
    fn dimension_bounds_checked() {
        Coord::zero(MAX_DIM + 1);
    }

    #[test]
    fn from_slice_round_trips() {
        let c = Coord::from_slice(&[1.0, 2.0]);
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }
}
