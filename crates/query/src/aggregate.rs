//! The mergeable aggregate lattice cached at every SOMO node.
//!
//! An [`Aggregate`] summarizes one subtree of the SOMO tree in **constant
//! space**: per-rank count/sum/min/max of free degree, plus fixed-bucket
//! histograms over free degree, coordinate region and bandwidth class.
//! Constant size is the whole point — a parent's aggregate is the merge of
//! its children's, so the bytes crossing any tree edge do not grow with
//! subtree size, which is what makes query answers `O(log_k N)` on the wire
//! where a full snapshot gather is `O(N)`.
//!
//! `merge` is **commutative and associative** with [`Aggregate::empty`] as
//! the identity (proptest-checked in `tests/prop_aggregate.rs`); the SOMO
//! gather may therefore fold children in any order, over any intermediate
//! grouping, and arrive at the same summary.

use netsim::HostId;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use somo::Report;

/// Buckets of the free-degree histogram. Bucket `i` counts hosts whose
/// weakest-rank availability falls in `[DEGREE_BUCKET_LO[i],
/// DEGREE_BUCKET_LO[i+1])` (the last bucket is open-ended).
pub const DEGREE_BUCKETS: usize = 8;
/// Lower edges of the free-degree buckets.
pub const DEGREE_BUCKET_LO: [u32; DEGREE_BUCKETS] = [0, 1, 2, 3, 4, 8, 16, 32];

/// The coordinate-region histogram is a `REGION_GRID × REGION_GRID` grid
/// over a fixed bounding box of the first two embedding dimensions.
pub const REGION_GRID: usize = 4;
/// Total region buckets.
pub const REGION_BUCKETS: usize = REGION_GRID * REGION_GRID;

/// Bandwidth classes (mirrors `netsim::BandwidthClass`'s five-way mix).
pub const BW_CLASSES: usize = 5;

/// Fixed bounding box the region histogram is drawn over. Hosts outside
/// the box are clamped into the edge buckets, so the histogram stays a
/// census (it never drops anyone).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegionBounds {
    /// Lower corner (dims 0 and 1 of the embedding), ms.
    pub min: [f64; 2],
    /// Upper corner, ms.
    pub max: [f64; 2],
}

impl Default for RegionBounds {
    /// A box generously covering the transit–stub embeddings used in this
    /// workspace (coordinates land well inside ±400 ms).
    fn default() -> Self {
        RegionBounds {
            min: [-400.0, -400.0],
            max: [400.0, 400.0],
        }
    }
}

impl RegionBounds {
    /// The grid bucket a position falls in (clamped to the box).
    pub fn bucket(&self, pos: [f64; 2]) -> usize {
        let mut idx = 0usize;
        for (d, &p) in pos.iter().enumerate() {
            let span = (self.max[d] - self.min[d]).max(f64::MIN_POSITIVE);
            let frac = ((p - self.min[d]) / span).clamp(0.0, 1.0);
            let cell = ((frac * REGION_GRID as f64) as usize).min(REGION_GRID - 1);
            idx = idx * REGION_GRID + cell;
        }
        idx
    }

    /// The closed coordinate box of one grid bucket.
    pub fn bucket_box(&self, bucket: usize) -> ([f64; 2], [f64; 2]) {
        let cx = bucket / REGION_GRID;
        let cy = bucket % REGION_GRID;
        let w = [
            (self.max[0] - self.min[0]) / REGION_GRID as f64,
            (self.max[1] - self.min[1]) / REGION_GRID as f64,
        ];
        let lo = [
            self.min[0] + cx as f64 * w[0],
            self.min[1] + cy as f64 * w[1],
        ];
        let hi = [lo[0] + w[0], lo[1] + w[1]];
        (lo, hi)
    }
}

/// The free-degree bucket an availability value falls in.
pub fn degree_bucket(avail: u32) -> usize {
    DEGREE_BUCKET_LO
        .iter()
        .rposition(|&lo| avail >= lo)
        .unwrap_or(0)
}

/// count/sum/min/max of one metric across a subtree. The identity element
/// has `count = 0`, `min = u32::MAX`, `max = 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricAgg {
    /// Number of contributions folded in.
    pub count: u64,
    /// Sum of the metric.
    pub sum: u64,
    /// Minimum (`u32::MAX` when empty).
    pub min: u32,
    /// Maximum (`0` when empty).
    pub max: u32,
}

impl Default for MetricAgg {
    fn default() -> Self {
        MetricAgg {
            count: 0,
            sum: 0,
            min: u32::MAX,
            max: 0,
        }
    }
}

impl MetricAgg {
    /// A single observation.
    pub fn of(v: u32) -> MetricAgg {
        MetricAgg {
            count: 1,
            sum: v as u64,
            min: v,
            max: v,
        }
    }

    /// Fold another aggregate in (commutative, associative).
    pub fn merge(&mut self, o: &MetricAgg) {
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }
}

/// One host's published metadata — the leaf-level input to the aggregate
/// lattice (what the pool's degree table + coordinates + bandwidth class
/// boil down to on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostSample {
    /// The host.
    pub host: HostId,
    /// Degrees available to a claim of rank 0 (member), 1, 2, 3.
    pub free: [u32; 4],
    /// First two dimensions of the host's network coordinate, ms.
    pub pos: [f64; 2],
    /// Bandwidth class index (0..[`BW_CLASSES`]).
    pub bw_class: u8,
    /// When this sample was taken.
    pub sampled_at: SimTime,
    /// Total degree bound of the host — the denominator that turns the
    /// summed `free` degrees into a cluster-level free fraction.
    pub capacity: u32,
    /// Session arrivals parked in this host's admission queue (non-zero
    /// only on hosts running a market admission controller).
    pub queued: u32,
    /// Helper preemptions this host observed since its last publish.
    pub preempted: u32,
}

/// The constant-size subtree summary cached at every SOMO node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Hosts summarized.
    pub hosts: u64,
    /// Free-degree count/sum/min/max per claim rank (index = rank).
    pub free: [MetricAgg; 4],
    /// Histogram of weakest-rank (rank 3) availability over
    /// [`DEGREE_BUCKET_LO`]. Rank-3 availability lower-bounds every other
    /// rank's, so bucket sums are valid conservative match counts for any
    /// rank — the pruning bound the top-k descent uses.
    pub degree_hist: [u64; DEGREE_BUCKETS],
    /// Host count per coordinate-region grid cell.
    pub region_hist: [u64; REGION_BUCKETS],
    /// Host count per bandwidth class.
    pub bw_hist: [u64; BW_CLASSES],
    /// The stalest contribution's sample time (`SimTime::MAX` when empty) —
    /// the freshness stamp query answers propagate.
    pub oldest: SimTime,
    /// Total degree capacity across the subtree (sum of host degree
    /// bounds) — denominator of the backpressure free fraction.
    pub capacity: u64,
    /// Admission-queue depth summed across the subtree.
    pub queued: u64,
    /// Helper preemptions observed across the subtree since the hosts'
    /// last publishes.
    pub preempted: u64,
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate::empty()
    }
}

impl Aggregate {
    /// The merge identity: zero hosts, empty histograms.
    pub fn empty() -> Aggregate {
        Aggregate {
            hosts: 0,
            free: [MetricAgg::default(); 4],
            degree_hist: [0; DEGREE_BUCKETS],
            region_hist: [0; REGION_BUCKETS],
            bw_hist: [0; BW_CLASSES],
            oldest: SimTime::MAX,
            capacity: 0,
            queued: 0,
            preempted: 0,
        }
    }

    /// The aggregate of a single host sample.
    pub fn of_sample(s: &HostSample, bounds: &RegionBounds) -> Aggregate {
        let mut a = Aggregate::empty();
        a.add_sample(s, bounds);
        a
    }

    /// Fold one host sample in: `merge(&of_sample(s, bounds))` without the
    /// temporary (the index folds every reporting leaf this way).
    pub fn add_sample(&mut self, s: &HostSample, bounds: &RegionBounds) {
        self.hosts += 1;
        for r in 0..4 {
            self.free[r].merge(&MetricAgg::of(s.free[r]));
        }
        self.degree_hist[degree_bucket(s.free[3])] += 1;
        self.region_hist[bounds.bucket(s.pos)] += 1;
        self.bw_hist[(s.bw_class as usize).min(BW_CLASSES - 1)] += 1;
        self.oldest = self.oldest.min(s.sampled_at);
        self.capacity = self.capacity.saturating_add(s.capacity as u64);
        self.queued = self.queued.saturating_add(s.queued as u64);
        self.preempted = self.preempted.saturating_add(s.preempted as u64);
    }

    /// Whether this summarizes nothing.
    pub fn is_empty(&self) -> bool {
        self.hosts == 0
    }

    /// Conservative count of hosts guaranteed to offer at least `min_free`
    /// degrees at *any* rank: the sum of free-degree buckets that lie
    /// entirely at or above `min_free`. Used by the nearest-ancestor scope
    /// search — if this already reaches `k`, the subtree can satisfy a
    /// top-k query without going wider.
    pub fn guaranteed_at_least(&self, min_free: u32) -> u64 {
        (0..DEGREE_BUCKETS)
            .filter(|&i| DEGREE_BUCKET_LO[i] >= min_free)
            .map(|i| self.degree_hist[i])
            .sum()
    }
}

impl Report for Aggregate {
    fn merge(&mut self, other: &Self) {
        self.hosts += other.hosts;
        for r in 0..4 {
            self.free[r].merge(&other.free[r]);
        }
        for i in 0..DEGREE_BUCKETS {
            self.degree_hist[i] += other.degree_hist[i];
        }
        for i in 0..REGION_BUCKETS {
            self.region_hist[i] += other.region_hist[i];
        }
        for i in 0..BW_CLASSES {
            self.bw_hist[i] += other.bw_hist[i];
        }
        self.oldest = self.oldest.min(other.oldest);
        self.capacity = self.capacity.saturating_add(other.capacity);
        self.queued = self.queued.saturating_add(other.queued);
        self.preempted = self.preempted.saturating_add(other.preempted);
    }
}

impl somo::traffic::Encodable for Aggregate {
    /// Fixed-width wire form: the constant-size property the byte
    /// accounting in `ext_query` depends on.
    fn encode(&self) -> somo::traffic::Bytes {
        use somo::traffic::BufMut;
        let mut b = somo::traffic::BytesMut::with_capacity(Self::WIRE_BYTES);
        b.put_u64(self.hosts);
        for r in 0..4 {
            b.put_u64(self.free[r].count);
            b.put_u64(self.free[r].sum);
            b.put_u32(self.free[r].min);
            b.put_u32(self.free[r].max);
        }
        for v in self.degree_hist {
            b.put_u64(v);
        }
        for v in self.region_hist {
            b.put_u64(v);
        }
        for v in self.bw_hist {
            b.put_u64(v);
        }
        b.put_u64(self.oldest.as_micros());
        b.put_u64(self.capacity);
        b.put_u64(self.queued);
        b.put_u64(self.preempted);
        b.freeze()
    }
}

impl Aggregate {
    /// Exact wire size of the fixed-width encoding.
    pub const WIRE_BYTES: usize =
        8 + 4 * 24 + DEGREE_BUCKETS * 8 + REGION_BUCKETS * 8 + BW_CLASSES * 8 + 8 + 3 * 8;

    /// The cluster-level backpressure signal this aggregate carries — what
    /// a host reads from its SOMO parent to drive admission control under
    /// scarcity, instead of gathering a global snapshot.
    pub fn pressure(&self) -> PressureReport {
        let frac = |r: usize| {
            if self.capacity == 0 {
                0.0
            } else {
                self.free[r].sum as f64 / self.capacity as f64
            }
        };
        PressureReport {
            free_frac: [frac(0), frac(1), frac(2), frac(3)],
            queue_depth: self.queued,
            preemption_rate: if self.hosts == 0 {
                0.0
            } else {
                self.preempted as f64 / self.hosts as f64
            },
        }
    }
}

/// Cluster-level backpressure derived from an [`Aggregate`].
///
/// `free_frac[3]` (rank-3 availability is plain free degree, nothing
/// preemptible folded in) is the scarcity signal the market's admission
/// controller keys on.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PressureReport {
    /// Fraction of total degree capacity available to a claim of each rank
    /// (index = rank; 0.0 when the aggregate is empty).
    pub free_frac: [f64; 4],
    /// Session arrivals waiting in admission queues across the subtree.
    pub queue_depth: u64,
    /// Recent helper preemptions per summarized host.
    pub preemption_rate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use somo::traffic::Encodable;

    fn sample(h: u32, free3: u32, pos: [f64; 2]) -> HostSample {
        HostSample {
            host: HostId(h),
            free: [free3 + 3, free3 + 2, free3 + 1, free3],
            pos,
            bw_class: (h % 5) as u8,
            sampled_at: SimTime::from_secs(h as u64),
            capacity: free3 + 4,
            queued: h % 3,
            preempted: h % 2,
        }
    }

    #[test]
    fn empty_is_merge_identity() {
        let b = RegionBounds::default();
        let a = Aggregate::of_sample(&sample(3, 7, [10.0, -20.0]), &b);
        let mut left = Aggregate::empty();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&Aggregate::empty());
        assert_eq!(left, a);
        assert_eq!(right, a);
    }

    #[test]
    fn single_sample_fields() {
        let b = RegionBounds::default();
        let a = Aggregate::of_sample(&sample(2, 9, [0.0, 0.0]), &b);
        assert_eq!(a.hosts, 1);
        assert_eq!(a.free[3].max, 9);
        assert_eq!(a.free[0].max, 12);
        assert_eq!(a.degree_hist[degree_bucket(9)], 1);
        assert_eq!(a.oldest, SimTime::from_secs(2));
    }

    #[test]
    fn degree_buckets_partition_the_axis() {
        assert_eq!(degree_bucket(0), 0);
        assert_eq!(degree_bucket(1), 1);
        assert_eq!(degree_bucket(3), 3);
        assert_eq!(degree_bucket(4), 4);
        assert_eq!(degree_bucket(7), 4);
        assert_eq!(degree_bucket(8), 5);
        assert_eq!(degree_bucket(31), 6);
        assert_eq!(degree_bucket(1_000_000), 7);
    }

    #[test]
    fn guaranteed_at_least_is_conservative() {
        let b = RegionBounds::default();
        let mut a = Aggregate::empty();
        for (h, f) in [(1u32, 0u32), (2, 2), (3, 5), (4, 9), (5, 40)] {
            a.merge(&Aggregate::of_sample(&sample(h, f, [0.0, 0.0]), &b));
        }
        // Buckets entirely ≥ 4: [4,8), [8,16), [16,32), [32,∞) → hosts with
        // free 5, 9, 40.
        assert_eq!(a.guaranteed_at_least(4), 3);
        // min_free 5 cannot count the [4,8) bucket (it may hold a 4).
        assert_eq!(a.guaranteed_at_least(5), 2);
        assert_eq!(a.guaranteed_at_least(0), 5);
    }

    #[test]
    fn region_buckets_clamp_out_of_range() {
        let b = RegionBounds::default();
        assert_eq!(b.bucket([-1e9, -1e9]), 0);
        assert_eq!(b.bucket([1e9, 1e9]), REGION_BUCKETS - 1);
        // bucket_box inverts bucket for in-range points.
        for bucket in 0..REGION_BUCKETS {
            let (lo, hi) = b.bucket_box(bucket);
            let mid = [(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0];
            assert_eq!(b.bucket(mid), bucket);
        }
    }

    #[test]
    fn pressure_is_a_capacity_weighted_free_fraction() {
        let b = RegionBounds::default();
        // Empty aggregate: no capacity, no pressure.
        let p0 = Aggregate::empty().pressure();
        assert_eq!(p0.free_frac, [0.0; 4]);
        assert_eq!(p0.queue_depth, 0);
        assert_eq!(p0.preemption_rate, 0.0);
        // Two hosts: capacities 6 and 8, rank-3 free 2 and 4.
        let mut a = Aggregate::of_sample(&sample(3, 2, [0.0, 0.0]), &b);
        a.merge(&Aggregate::of_sample(&sample(4, 4, [0.0, 0.0]), &b));
        let p = a.pressure();
        assert!((p.free_frac[3] - 6.0 / 14.0).abs() < 1e-12);
        // `sample(h, ..)` reports queue depth h % 3 and preemption rate
        // h % 2: hosts 3 and 4 sum to depth 0 + 1 and mean rate (1 + 0)/2.
        assert_eq!(p.queue_depth, 1);
        assert!((p.preemption_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wire_size_is_constant() {
        let b = RegionBounds::default();
        let mut a = Aggregate::of_sample(&sample(1, 3, [5.0, 5.0]), &b);
        assert_eq!(a.encoded_len(), Aggregate::WIRE_BYTES);
        for h in 2..100 {
            a.merge(&Aggregate::of_sample(
                &sample(h, h % 13, [h as f64, -(h as f64)]),
                &b,
            ));
        }
        assert_eq!(a.encoded_len(), Aggregate::WIRE_BYTES);
    }
}
