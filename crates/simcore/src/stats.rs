//! Statistics helpers for experiment harnesses.
//!
//! Everything the figure-regeneration binaries need: online mean and extremes
//! (Welford), exact percentiles over collected samples, empirical CDFs
//! (Figure 4 of the paper is a relative-error CDF) and Jain's fairness
//! index.

use serde::{Deserialize, Serialize};

/// Online mean accumulator (Welford's algorithm).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    /// Sum of squared deviations from the mean: the sample variance is
    /// `m2 / (n − 1)`. Nothing reads it back; it stays in the `Debug` form
    /// the market pins digest.
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact percentile of a sample set; `q` in `[0, 1]`, linear interpolation.
/// Returns `None` on an empty slice. The input need not be sorted.
///
/// `total_cmp` orders the samples: well-defined — NaNs sort to the ends —
/// instead of panicking if a poisoned metric ever leaks one in.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile_sorted(&v, q))
}

/// Jain's fairness index of a share vector: `(Σx)² / (n·Σx²)`.
///
/// Bounded in `[1/n, 1]` for non-negative shares; exactly 1 when every
/// share is equal, and `k/n` when `k` parties split the pool evenly and the
/// rest get nothing. Degenerate inputs — an empty slice or all-zero shares
/// — return 1.0: a pool with nothing allocated is trivially fair.
pub fn jain_index(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|&x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

/// Percentile of an already-sorted slice (panics on empty input).
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical cumulative distribution function over collected samples.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from samples (NaNs are rejected with a panic).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "NaN sample in CDF input"
        );
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The value below which a fraction `q` of samples fall (inverse CDF).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(percentile_sorted(&self.sorted, q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance of this classic data set is 32/7.
        assert!((s.m2 / 7.0 - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn cdf_fraction_and_quantile() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 10.0]);
        assert_eq!(cdf.fraction_at(0.5), 0.0);
        assert_eq!(cdf.fraction_at(2.0), 0.75);
        assert_eq!(cdf.fraction_at(100.0), 1.0);
        assert_eq!(cdf.quantile(1.0), Some(10.0));
    }

    proptest::proptest! {
        // Jain's index is bounded in [1/n, 1] for any non-negative share
        // vector (degenerate all-zero inputs report 1.0 by convention).
        #[test]
        fn jain_index_is_bounded(raw in proptest::collection::vec(0u32..1000, 1..64)) {
            let shares: Vec<f64> = raw.iter().map(|&x| x as f64).collect();
            let j = jain_index(&shares);
            proptest::prop_assert!(j <= 1.0 + 1e-9);
            proptest::prop_assert!(j >= 1.0 / shares.len() as f64 - 1e-9);
        }

        // Perfectly equal shares score exactly 1.
        #[test]
        fn jain_index_is_one_on_equal_shares(v in 1u32..1000, n in 1usize..64) {
            let shares = vec![v as f64; n];
            proptest::prop_assert!((jain_index(&shares) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn jain_index_degenerate_inputs_are_trivially_fair() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0, 0.0]), 1.0);
        // k of n parties splitting evenly scores k/n.
        let j = jain_index(&[5.0, 5.0, 0.0, 0.0]);
        assert!((j - 0.5).abs() < 1e-12);
    }
}
