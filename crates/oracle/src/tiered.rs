//! The tiered latency oracle: exact Dijkstra-row LRU (hot tier) over
//! landmark triangle bounds (sketch tier) over GNP coordinate distances
//! (base tier), with per-tier hit counters and full memory accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use coords::CoordStore;
use netsim::graph::Graph;
use netsim::hosts::HostSet;
use netsim::{HostId, LatencyMatrix, LatencyModel, RouterNet};

use crate::sketch::LandmarkSketch;

/// Tunables for [`TieredOracle`].
#[derive(Clone, Debug, PartialEq)]
pub struct TieredConfig {
    /// Capacity of the hot tier, in exact Dijkstra rows (each row is one
    /// *router*'s distance vector, `graph.len() × 4` bytes). 0 disables
    /// the hot tier entirely.
    pub hot_rows: usize,
    /// Landmark count for the sketch tier (and, when the caller shares
    /// the landmark set with GNP, for the coordinate fit).
    pub landmarks: usize,
    /// Sketch-tier acceptance ratio: a pair is answered from its
    /// triangle bounds when `upper <= tightness * lower`. 1.0 accepts
    /// only exact pinches (pairs through a landmark); larger values
    /// trade precision for coordinate-tier traffic.
    pub tightness: f64,
}

impl Default for TieredConfig {
    fn default() -> TieredConfig {
        TieredConfig {
            hot_rows: 128,
            landmarks: 16,
            tightness: 1.25,
        }
    }
}

/// Cumulative per-tier answer counts plus hot-tier churn counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TierStats {
    /// Pairs answered exactly (same-router shortcut or a resident row).
    pub hot: u64,
    /// Pairs answered from landmark triangle bounds.
    pub sketch: u64,
    /// Pairs answered from coordinate distance (clamped into bounds).
    pub base: u64,
    /// Rows inserted into the hot tier.
    pub promotions: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
}

impl TierStats {
    /// Total latency queries answered.
    pub fn total(&self) -> u64 {
        self.hot + self.sketch + self.base
    }
}

struct HotSlot {
    router: u32,
    last_used: u64,
    row: Box<[f32]>,
}

/// Bounded LRU of exact Dijkstra rows, keyed by router id. Mutated only
/// through [`TieredOracle::promote`] — lookups never touch recency, so
/// reads are side-effect free and plan results cannot depend on the
/// *order* in which the planner happened to probe pairs.
struct HotRows {
    cap: usize,
    /// router id -> slot index, `u32::MAX` when not resident.
    resident: Vec<u32>,
    slots: Vec<HotSlot>,
    tick: u64,
    promotions: u64,
    evictions: u64,
}

impl HotRows {
    fn new(num_routers: usize, cap: usize) -> HotRows {
        HotRows {
            cap,
            resident: vec![u32::MAX; num_routers],
            slots: Vec::new(),
            tick: 0,
            promotions: 0,
            evictions: 0,
        }
    }

    #[inline]
    fn row(&self, router: u32) -> Option<&[f32]> {
        let s = self.resident[router as usize];
        if s == u32::MAX {
            None
        } else {
            Some(&self.slots[s as usize].row)
        }
    }

    /// `fetch` yields `router`'s exact Dijkstra row; called only on a miss.
    fn touch_or_insert(&mut self, router: u32, fetch: impl FnOnce() -> Box<[f32]>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        let s = self.resident[router as usize];
        if s != u32::MAX {
            self.slots[s as usize].last_used = self.tick;
            return;
        }
        let row = fetch();
        self.promotions += 1;
        if self.slots.len() < self.cap {
            self.resident[router as usize] = self.slots.len() as u32;
            self.slots.push(HotSlot {
                router,
                last_used: self.tick,
                row,
            });
            return;
        }
        // Evict the least-recently promoted/touched row; ties (only
        // possible for never-retouched rows from one promote batch are
        // impossible — ticks are unique — but keep the rule total) go to
        // the smallest router id.
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.last_used, s.router))
            .map(|(i, _)| i)
            .expect("cap > 0 implies at least one slot");
        self.evictions += 1;
        self.resident[self.slots[victim].router as usize] = u32::MAX;
        self.resident[router as usize] = victim as u32;
        self.slots[victim] = HotSlot {
            router,
            last_used: self.tick,
            row,
        };
    }

    fn deep_clone(&self) -> HotRows {
        HotRows {
            cap: self.cap,
            resident: self.resident.clone(),
            slots: self
                .slots
                .iter()
                .map(|s| HotSlot {
                    router: s.router,
                    last_used: s.last_used,
                    row: s.row.clone(),
                })
                .collect(),
            tick: self.tick,
            promotions: self.promotions,
            evictions: self.evictions,
        }
    }

    fn resident_bytes(&self) -> usize {
        self.resident.len() * 4
            + self.slots.len() * std::mem::size_of::<HotSlot>()
            + self.slots.iter().map(|s| s.row.len() * 4).sum::<usize>()
    }
}

#[derive(Default)]
struct Counters {
    hot: AtomicU64,
    sketch: AtomicU64,
    base: AtomicU64,
}

impl Counters {
    #[inline]
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// The tiered oracle. Answers exactly when it can (hot tier), from
/// landmark triangle bounds when they pinch tightly enough (sketch
/// tier), and from GNP coordinate distance clamped into those bounds
/// otherwise (base tier). Total storage is O(N·L + R·hot_rows + N·dim)
/// — never O(N²).
///
/// # Precision contract per tier
///
/// * **hot** — bit-identical to the exact [`netsim::LatencyMatrix`]
///   answer on the default integral-millisecond topology (same
///   expression, and router Dijkstra distances there are exact in f32
///   from either endpoint). On exotic float link weights a row computed
///   from the *other* endpoint's router may differ by final-rounding
///   ulps; values are still symmetric because pairs are canonicalized.
/// * **sketch** — the interval midpoint `0.5*(lo+up)`; the exact value
///   lies within the interval up to f32 rounding of sketch entries, so
///   the error is bounded by half the interval width (`tightness`
///   bounds the relative width at acceptance time).
/// * **base** — coordinate distance, clamped into `[lo, up]`; NaN
///   coordinates degrade deterministically to `lo`.
///
/// # Sharing vs. cloning
///
/// [`TieredOracle::share`] returns a handle over the *same* hot tier and
/// counters (promotions and hit counts accumulate across all shared
/// handles); `Clone` deep-copies the mutable state so clones diverge —
/// matching `ResourcePool`'s clone-for-what-if semantics (e.g. the
/// market A/B harness).
pub struct TieredOracle {
    n: usize,
    tightness: f64,
    graph: Arc<Graph>,
    host_router: Arc<[u32]>,
    last_hop: Arc<[f64]>,
    coords: Arc<CoordStore>,
    sketch: LandmarkSketch,
    hot: Arc<RwLock<HotRows>>,
    /// Where promoted rows come from: the exact kernel's resident rows
    /// when the pool that owns one built this oracle
    /// ([`TieredOracle::with_row_source`]), Dijkstra on `graph` otherwise.
    /// The rows are the same either way; only the cost of a miss differs.
    row_source: Option<LatencyMatrix>,
    counters: Arc<Counters>,
}

impl TieredOracle {
    /// Build the oracle. `coords` are the base-tier coordinates (GNP or
    /// leafset — anything whose distance estimates latency in ms);
    /// `sketch` must cover the same host set.
    pub fn new(
        net: &RouterNet,
        hosts: &HostSet,
        coords: CoordStore,
        sketch: LandmarkSketch,
        cfg: &TieredConfig,
    ) -> TieredOracle {
        let n = hosts.len();
        assert_eq!(sketch.num_hosts(), n, "sketch/host-set size mismatch");
        let host_router: Vec<u32> = (0..n)
            .map(|i| hosts.get(HostId(i as u32)).router.0)
            .collect();
        let last_hop: Vec<f64> = (0..n)
            .map(|i| hosts.get(HostId(i as u32)).last_hop_ms)
            .collect();
        TieredOracle {
            n,
            tightness: cfg.tightness,
            graph: Arc::new(net.graph.clone()),
            host_router: host_router.into(),
            last_hop: last_hop.into(),
            coords: Arc::new(coords),
            sketch,
            hot: Arc::new(RwLock::new(HotRows::new(net.graph.len(), cfg.hot_rows))),
            row_source: None,
            counters: Arc::new(Counters::default()),
        }
    }

    /// Copy promoted rows out of `kernel` — built over the same network
    /// and host set — instead of re-running Dijkstra for them. Residents,
    /// LRU order, counters and answers are unchanged; the kernel stays the
    /// caller's and is not counted in [`TieredOracle::resident_bytes`].
    pub fn with_row_source(mut self, kernel: &LatencyMatrix) -> TieredOracle {
        assert_eq!(kernel.num_hosts(), self.n, "kernel/host-set size mismatch");
        self.row_source = Some(kernel.clone());
        self
    }

    /// A handle over the same mutable state: promotions and counters
    /// made through either handle are visible through both.
    pub fn share(&self) -> TieredOracle {
        TieredOracle {
            n: self.n,
            tightness: self.tightness,
            graph: Arc::clone(&self.graph),
            host_router: Arc::clone(&self.host_router),
            last_hop: Arc::clone(&self.last_hop),
            coords: Arc::clone(&self.coords),
            sketch: self.sketch.clone(),
            hot: Arc::clone(&self.hot),
            row_source: self.row_source.clone(),
            counters: Arc::clone(&self.counters),
        }
    }

    /// Promote each host's router row into the hot tier (insert or
    /// refresh recency). The only mutation path — plain latency lookups
    /// never change the cache, so lookup order cannot alter state.
    pub fn promote(&self, hosts: &[HostId]) {
        let mut hot = self.hot.write().expect("hot tier lock poisoned");
        for &h in hosts {
            let router = self.host_router[h.idx()];
            hot.touch_or_insert(router, || match &self.row_source {
                Some(kernel) => kernel.router_row(h).into(),
                None => self.graph.dijkstra(router).into_boxed_slice(),
            });
        }
    }

    /// Cumulative per-tier counters across all shared handles.
    pub fn stats(&self) -> TierStats {
        let hot = self.hot.read().expect("hot tier lock poisoned");
        TierStats {
            hot: self.counters.hot.load(Ordering::Relaxed),
            sketch: self.counters.sketch.load(Ordering::Relaxed),
            base: self.counters.base.load(Ordering::Relaxed),
            promotions: hot.promotions,
            evictions: hot.evictions,
        }
    }

    /// Rows currently resident in the hot tier.
    pub fn resident_rows(&self) -> usize {
        self.hot.read().expect("hot tier lock poisoned").slots.len()
    }

    /// The routers whose rows are resident in the hot tier, ascending.
    pub fn resident_routers(&self) -> Vec<u32> {
        let hot = self.hot.read().expect("hot tier lock poisoned");
        let mut routers: Vec<u32> = hot.slots.iter().map(|s| s.router).collect();
        routers.sort_unstable();
        routers
    }

    /// Total bytes resident across every tier-backing structure: hot
    /// rows + residency map, landmark sketch, host→router / last-hop
    /// tables, coordinates, and the shared router graph.
    pub fn resident_bytes(&self) -> usize {
        let graph_bytes = self.graph.len() * std::mem::size_of::<Vec<(u32, f32)>>()
            + self.graph.num_edges() * 2 * std::mem::size_of::<(u32, f32)>();
        self.hot
            .read()
            .expect("hot tier lock poisoned")
            .resident_bytes()
            + self.sketch.resident_bytes()
            + self.host_router.len() * 4
            + self.last_hop.len() * 8
            + self.coords.resident_bytes()
            + graph_bytes
    }

    #[inline]
    fn exact(&self, p: usize, q: usize, router_d: f32) -> f64 {
        // Same expression as LatencyMatrix::latency_ms — bit-identical answer.
        f64::from((self.last_hop[p] + f64::from(router_d) + self.last_hop[q]) as f32)
    }
}

impl Clone for TieredOracle {
    /// Deep copy: the clone gets its own hot tier and counters, so
    /// what-if clones (market A/B legs, crash replays) diverge instead
    /// of polluting each other's cache state.
    fn clone(&self) -> TieredOracle {
        TieredOracle {
            n: self.n,
            tightness: self.tightness,
            graph: Arc::clone(&self.graph),
            host_router: Arc::clone(&self.host_router),
            last_hop: Arc::clone(&self.last_hop),
            coords: Arc::clone(&self.coords),
            sketch: self.sketch.clone(),
            hot: Arc::new(RwLock::new(
                self.hot
                    .read()
                    .expect("hot tier lock poisoned")
                    .deep_clone(),
            )),
            row_source: self.row_source.clone(),
            counters: Arc::new(Counters {
                hot: AtomicU64::new(self.counters.hot.load(Ordering::Relaxed)),
                sketch: AtomicU64::new(self.counters.sketch.load(Ordering::Relaxed)),
                base: AtomicU64::new(self.counters.base.load(Ordering::Relaxed)),
            }),
        }
    }
}

impl std::fmt::Debug for TieredOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredOracle")
            .field("n", &self.n)
            .field("landmarks", &self.sketch.num_landmarks())
            .field("resident_rows", &self.resident_rows())
            .field("stats", &self.stats())
            .finish()
    }
}

impl LatencyModel for TieredOracle {
    fn num_hosts(&self) -> usize {
        self.n
    }

    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        // Canonical order: every (a,b)/(b,a) pair takes the identical
        // code path, so symmetry holds bit-for-bit on every tier.
        let (p, q) = if a.0 <= b.0 {
            (a.idx(), b.idx())
        } else {
            (b.idx(), a.idx())
        };
        let (rp, rq) = (self.host_router[p], self.host_router[q]);
        if rp == rq {
            Counters::bump(&self.counters.hot);
            return self.exact(p, q, 0.0);
        }
        {
            let hot = self.hot.read().expect("hot tier lock poisoned");
            if let Some(row) = hot.row(rp) {
                Counters::bump(&self.counters.hot);
                return self.exact(p, q, row[rq as usize]);
            }
            if let Some(row) = hot.row(rq) {
                Counters::bump(&self.counters.hot);
                return self.exact(p, q, row[rp as usize]);
            }
        }
        let (lo, up) = self.sketch.bounds_idx(p, q);
        if up <= self.tightness * lo {
            Counters::bump(&self.counters.sketch);
            return 0.5 * (lo + up);
        }
        Counters::bump(&self.counters.base);
        let est = self.coords.latency_ms(HostId(p as u32), HostId(q as u32));
        if est.is_nan() {
            // Deterministic degradation: a poisoned coordinate falls
            // back to the sketch lower bound (always finite, >= 0).
            return lo;
        }
        est.max(lo).min(up)
    }
}
