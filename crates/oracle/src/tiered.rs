//! The tiered latency oracle: exact Dijkstra-row LRU (hot tier) over
//! landmark triangle bounds (sketch tier) over GNP coordinate distances
//! (base tier), with per-tier hit counters and full memory accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use coords::CoordStore;
use netsim::graph::Graph;
use netsim::hosts::HostSet;
use netsim::{HostId, LatencyMatrix, LatencyModel, Network, RouterNet};

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
    /// Rows copied into the hot tier. A promotion batch copies only the
    /// rows it leaves resident, so this counts rows that stay, not hosts
    /// promoted.
    pub promotions: u64,
    /// Resident rows a later batch displaced.
    pub evictions: u64,
}

impl TierStats {
    /// Total latency queries answered.
    pub fn total(&self) -> u64 {
        self.hot + self.sketch + self.base
    }
}

#[derive(Clone)]
struct HotSlot {
    router: u32,
    last_used: u64,
    row: Box<[f32]>,
}

/// Bounded LRU of exact Dijkstra rows, keyed by router id. Mutated only
/// through [`TieredOracle::promote`] and [`TieredOracle::promote_plan`] —
/// lookups never touch recency, so
/// reads are side-effect free and plan results cannot depend on the
/// *order* in which the planner happened to probe pairs.
#[derive(Clone)]
struct HotRows {
    cap: usize,
    /// router id -> slot index, `u32::MAX` when not resident.
    resident: Vec<u32>,
    /// router id -> position of its last occurrence in the batch
    /// [`HotRows::promote`] is working through. Written for every router of
    /// a batch before it is read, so values left by earlier batches never
    /// matter.
    last_seen: Vec<u32>,
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
            last_seen: vec![0; num_routers],
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

    /// Promote a batch of `(router, host)` pairs with the outcome of
    /// touching each in turn — refresh a resident row's recency, insert a
    /// missing one, evict the least recently used when full — but insert
    /// only the rows that outcome leaves resident: each router at its last
    /// occurrence, the newest `cap` of them, in batch order. Residents,
    /// recency ticks and so every answer equal the one-at-a-time loop's;
    /// `promotions` and `evictions` count only rows that really enter and
    /// leave, so a batch never evicts a row it inserted itself. `fetch`
    /// yields the row of a router entering the tier.
    fn promote<I>(&mut self, batch: I, fetch: impl Fn(u32, HostId) -> Box<[f32]>)
    where
        I: DoubleEndedIterator<Item = (u32, HostId)> + Clone,
    {
        if self.cap == 0 {
            return;
        }
        let mut len = 0u32;
        for (router, _) in batch.clone() {
            self.last_seen[router as usize] = len;
            len += 1;
        }
        let base = self.tick;
        self.tick += u64::from(len);
        let stamp = |pos: u32| base + u64::from(pos) + 1;
        // Newest first: find the routers that stay and refresh those already
        // resident, so that no insertion below can evict one of them.
        let (mut kept, mut first_kept) = (0, len);
        for (pos, (router, _)) in (0..len).rev().zip(batch.clone().rev()) {
            if kept == self.cap {
                break;
            }
            if self.last_seen[router as usize] != pos {
                continue;
            }
            kept += 1;
            first_kept = pos;
            let s = self.resident[router as usize];
            if s != u32::MAX {
                self.slots[s as usize].last_used = stamp(pos);
            }
        }
        for (pos, (router, host)) in (0..len).zip(batch).skip(first_kept as usize) {
            if self.last_seen[router as usize] == pos && self.resident[router as usize] == u32::MAX
            {
                self.insert(router, stamp(pos), fetch(router, host));
            }
        }
    }

    fn insert(&mut self, router: u32, last_used: u64, row: Box<[f32]>) {
        self.promotions += 1;
        let slot = HotSlot {
            router,
            last_used,
            row,
        };
        if self.slots.len() < self.cap {
            self.resident[router as usize] = self.slots.len() as u32;
            self.slots.push(slot);
            return;
        }
        // Evict the least recently promoted or refreshed row. Ticks are
        // unique, so the router tiebreak only keeps the rule total; rows
        // this batch keeps all carry newer ticks than any it may evict.
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
        self.slots[victim] = slot;
    }

    fn resident_bytes(&self) -> usize {
        (self.resident.len() + self.last_seen.len()) * 4
            + self.slots.len() * std::mem::size_of::<HotSlot>()
            + self.slots.iter().map(|s| s.row.len() * 4).sum::<usize>()
    }
}

/// Where promoted rows come from: Dijkstra on the oracle's own copy of the
/// router graph ([`TieredOracle::new`]), or the network's exact kernel
/// ([`TieredOracle::over_network`]). The rows agree on every column a
/// lookup reads whenever the link weights are integral milliseconds (the
/// hot tier's precision contract, on [`TieredOracle`], has the rest).
#[derive(Clone)]
enum RowSource {
    Graph(Arc<Graph>),
    Kernel(LatencyMatrix),
}

impl RowSource {
    /// The Dijkstra row of `router`, which `h` sits on.
    fn row(&self, router: u32, h: HostId) -> Box<[f32]> {
        match self {
            RowSource::Graph(graph) => graph.dijkstra(router).into_boxed_slice(),
            RowSource::Kernel(kernel) => kernel.router_row(h),
        }
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
/// otherwise (base tier). Total storage is O(L·R + N + hot_rows·R +
/// N·dim) — never O(N²), and nothing per host but 12 B of host tables
/// (shared with the sketch) and the coordinates.
///
/// # Precision contract per tier
///
/// * **hot** — bit-identical to the exact [`netsim::LatencyMatrix`]
///   answer on the default integral-millisecond topology (same
///   expression, and router Dijkstra distances there are exact in f32
///   from either endpoint). A kernel-fed row ([`TieredOracle::over_network`])
///   is the kernel's own: every column a lookup reads is the distance
///   the kernel answers for that pair, on any link weights. A graph-fed
///   row ([`TieredOracle::new`]) is Dijkstra from the host's own router;
///   on exotic float link weights it may differ from the kernel's
///   distance, read from the lower router's row, by final-rounding ulps.
///   Values are symmetric either way because pairs are canonicalized.
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
/// handles); `Clone` copies the mutable state so clones diverge —
/// matching `ResourcePool`'s clone-for-what-if semantics (e.g. the
/// market A/B harness). Both share the immutable parts: coordinates,
/// sketch and row source.
pub struct TieredOracle {
    tightness: f64,
    coords: CoordStore,
    /// Also the oracle's host → router and last-hop tables.
    sketch: LandmarkSketch,
    hot: Arc<RwLock<HotRows>>,
    rows: RowSource,
    counters: Arc<Counters>,
}

impl TieredOracle {
    /// Build the oracle; promoted rows are Dijkstra runs on a copy of
    /// `net`'s graph. `coords` are the base-tier coordinates (GNP or
    /// leafset — anything whose distance estimates latency in ms);
    /// `sketch` must have been built over the same host set, whose router
    /// and last-hop tables the oracle then reads through the sketch.
    ///
    /// # Panics
    /// If `sketch` covers another host set: another size, or any host on
    /// another router or with another last hop. A sketch built over
    /// `hosts` itself shares its columns and is accepted without a look at
    /// them; any other takes one O(N) pass.
    pub fn new(
        net: &RouterNet,
        hosts: &HostSet,
        coords: CoordStore,
        sketch: LandmarkSketch,
        cfg: &TieredConfig,
    ) -> TieredOracle {
        let rows = RowSource::Graph(Arc::new(net.graph.clone()));
        Self::with_rows(net.graph.len(), hosts, coords, sketch, cfg, rows)
    }

    /// [`TieredOracle::new`] over `net.routers` and `net.hosts`, with
    /// promoted rows gathered out of `net.latency`, the exact kernel, so
    /// the oracle holds no router graph. On integral-millisecond link
    /// weights every answer and counter is the same.
    ///
    /// # Panics
    /// If `sketch` covers another host set than `net.hosts`.
    pub fn over_network(
        net: &Network,
        coords: CoordStore,
        sketch: LandmarkSketch,
        cfg: &TieredConfig,
    ) -> TieredOracle {
        let rows = RowSource::Kernel(net.latency.clone());
        Self::with_rows(net.routers.len(), &net.hosts, coords, sketch, cfg, rows)
    }

    fn with_rows(
        routers: usize,
        hosts: &HostSet,
        coords: CoordStore,
        sketch: LandmarkSketch,
        cfg: &TieredConfig,
        rows: RowSource,
    ) -> TieredOracle {
        let n = hosts.len();
        assert_eq!(sketch.num_hosts(), n, "sketch/host-set size mismatch");
        let (router, last_hop) = (sketch.host_router(), sketch.last_hop());
        // A sketch built over `hosts` holds its very columns: nothing to
        // compare. One built over another set is compared host by host.
        let shared =
            Arc::ptr_eq(router, hosts.routers()) && Arc::ptr_eq(last_hop, hosts.last_hops());
        if !shared {
            let pairs = hosts.routers().iter().zip(hosts.last_hops().iter());
            for (i, (&r, &lh)) in pairs.enumerate() {
                assert!(
                    router[i] == r && last_hop[i].to_bits() == lh.to_bits(),
                    "sketch built over another host set: host {i} sits on router {} with last \
                     hop {} ms there, on router {r} with {lh} ms here",
                    router[i],
                    last_hop[i],
                );
            }
        }
        TieredOracle {
            tightness: cfg.tightness,
            coords,
            sketch,
            hot: Arc::new(RwLock::new(HotRows::new(routers, cfg.hot_rows))),
            rows,
            counters: Arc::new(Counters::default()),
        }
    }

    /// A handle over the same mutable state: promotions and counters
    /// made through either handle are visible through both.
    pub fn share(&self) -> TieredOracle {
        TieredOracle {
            tightness: self.tightness,
            coords: self.coords.clone(),
            sketch: self.sketch.clone(),
            hot: Arc::clone(&self.hot),
            rows: self.rows.clone(),
            counters: Arc::clone(&self.counters),
        }
    }

    /// Promote the hosts' router rows into the hot tier as one batch: the
    /// tier ends as if each host were touched in turn (insert or refresh
    /// recency, evicting the least recently used), but only the rows it
    /// ends holding are copied in — the last `hot_rows` distinct routers,
    /// so a batch never evicts what it inserted itself. The only mutation
    /// path — plain latency lookups never change the cache, so lookup
    /// order cannot alter state.
    pub fn promote(&self, hosts: &[HostId]) {
        self.promote_batch(hosts.iter());
    }

    /// One plan's promotion: `candidates`, then `members`, as one batch
    /// ([`TieredOracle::promote`]). Members go last so that they are the
    /// newest rows: whenever they span at most `hot_rows` routers, every
    /// member↔member and member↔candidate pair answers exactly, however
    /// many candidates there are.
    pub fn promote_plan(&self, candidates: &[HostId], members: &[HostId]) {
        self.promote_batch(candidates.iter().chain(members));
        debug_assert!(
            self.keeps_rows_of(members),
            "a plan's promotion left one of its member rows out of the hot tier"
        );
    }

    fn promote_batch<'a>(&self, hosts: impl DoubleEndedIterator<Item = &'a HostId> + Clone) {
        let mut hot = self.hot.write().expect("hot tier lock poisoned");
        hot.promote(
            hosts.map(|&h| (self.sketch.host_router()[h.idx()], h)),
            |router, h| self.rows.row(router, h),
        );
    }

    /// Whether the hot tier holds the router row of every host in `hosts`,
    /// or they span more routers than it has rows: what a batch that ends
    /// with `hosts` guarantees.
    fn keeps_rows_of(&self, hosts: &[HostId]) -> bool {
        let host_router = self.sketch.host_router();
        let mut routers: Vec<u32> = hosts.iter().map(|h| host_router[h.idx()]).collect();
        routers.sort_unstable();
        routers.dedup();
        let hot = self.hot.read().expect("hot tier lock poisoned");
        routers.len() > hot.cap || routers.iter().all(|&r| hot.row(r).is_some())
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
    /// rows + residency map, landmark sketch (with the host→router /
    /// last-hop tables), coordinates, and the router graph of an oracle
    /// built by [`TieredOracle::new`] (not the network's kernel).
    pub fn resident_bytes(&self) -> usize {
        let graph_bytes = match &self.rows {
            RowSource::Graph(g) => {
                g.len() * size_of::<Vec<(u32, f32)>>() + g.num_edges() * 2 * size_of::<(u32, f32)>()
            }
            RowSource::Kernel(_) => 0,
        };
        self.hot
            .read()
            .expect("hot tier lock poisoned")
            .resident_bytes()
            + self.sketch.resident_bytes()
            + self.coords.resident_bytes()
            + graph_bytes
    }

    #[inline]
    fn exact(&self, p: usize, q: usize, router_d: f32) -> f64 {
        // Same expression as LatencyMatrix::latency_ms — bit-identical answer.
        let last_hop = self.sketch.last_hop();
        f64::from((last_hop[p] + f64::from(router_d) + last_hop[q]) as f32)
    }
}

impl Clone for TieredOracle {
    /// The clone gets its own copy of the hot tier and counters, so
    /// what-if clones (market A/B legs, crash replays) diverge instead
    /// of polluting each other's cache state.
    fn clone(&self) -> TieredOracle {
        TieredOracle {
            hot: Arc::new(RwLock::new(
                self.hot.read().expect("hot tier lock poisoned").clone(),
            )),
            counters: Arc::new(Counters {
                hot: AtomicU64::new(self.counters.hot.load(Ordering::Relaxed)),
                sketch: AtomicU64::new(self.counters.sketch.load(Ordering::Relaxed)),
                base: AtomicU64::new(self.counters.base.load(Ordering::Relaxed)),
            }),
            ..self.share()
        }
    }
}

impl std::fmt::Debug for TieredOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredOracle")
            .field("n", &self.num_hosts())
            .field("landmarks", &self.sketch.num_landmarks())
            .field("resident_rows", &self.resident_rows())
            .field("stats", &self.stats())
            .finish()
    }
}

impl LatencyModel for TieredOracle {
    fn num_hosts(&self) -> usize {
        self.sketch.num_hosts()
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
        let host_router = self.sketch.host_router();
        let (rp, rq) = (host_router[p], host_router[q]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::reference::{reference_sketch, world, ReferenceSketch};
    use netsim::topology::TransitStubConfig;
    use proptest::prelude::*;

    /// The one-host-at-a-time loop [`HotRows::promote`] replaced, kept as
    /// the reference a batch must agree with.
    fn reference_promote(oracle: &TieredOracle, hosts: &[HostId]) {
        let mut hot = oracle.hot.write().expect("hot tier lock poisoned");
        for &h in hosts {
            let router = oracle.sketch.host_router()[h.idx()];
            touch_or_insert(&mut hot, router, || oracle.rows.row(router, h));
        }
    }

    fn touch_or_insert(hot: &mut HotRows, router: u32, fetch: impl FnOnce() -> Box<[f32]>) {
        if hot.cap == 0 {
            return;
        }
        hot.tick += 1;
        let s = hot.resident[router as usize];
        if s != u32::MAX {
            hot.slots[s as usize].last_used = hot.tick;
            return;
        }
        let row = fetch();
        hot.promotions += 1;
        if hot.slots.len() < hot.cap {
            hot.resident[router as usize] = hot.slots.len() as u32;
            hot.slots.push(HotSlot {
                router,
                last_used: hot.tick,
                row,
            });
            return;
        }
        let victim = hot
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.last_used, s.router))
            .map(|(i, _)| i)
            .expect("cap > 0 implies at least one slot");
        hot.evictions += 1;
        hot.resident[hot.slots[victim].router as usize] = u32::MAX;
        hot.resident[router as usize] = victim as u32;
        hot.slots[victim] = HotSlot {
            router,
            last_used: hot.tick,
            row,
        };
    }

    /// The tier's clock and every resident router with its recency tick, by
    /// router: equal recency means every later eviction picks the same row.
    fn recency(oracle: &TieredOracle) -> (u64, Vec<(u32, u64)>) {
        let hot = oracle.hot.read().expect("hot tier lock poisoned");
        let mut rows: Vec<(u32, u64)> = hot.slots.iter().map(|s| (s.router, s.last_used)).collect();
        rows.sort_unstable();
        (hot.tick, rows)
    }

    /// Batch and reference agree on residents, recency and every answer
    /// counter; the batch copies and evicts no more rows than the loop.
    fn assert_agree(batch: &TieredOracle, reference: &TieredOracle) {
        assert_eq!(recency(batch), recency(reference));
        let (b, r) = (batch.stats(), reference.stats());
        assert_eq!((b.hot, b.sketch, b.base), (r.hot, r.sketch, r.base));
        assert!(b.promotions <= r.promotions, "{b:?} vs {r:?}");
        assert!(b.evictions <= r.evictions, "{b:?} vs {r:?}");
    }

    /// `latency_ms` as it read over the `L × N` sketch, with the host
    /// tables read from the `HostSet` itself: the answer, and the tier that
    /// gave it as a `TierStats` holding a single 1.
    fn reference_latency(
        oracle: &TieredOracle,
        hosts: &HostSet,
        sketch: &ReferenceSketch,
        a: HostId,
        b: HostId,
    ) -> (f64, TierStats) {
        let (p, q) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let (hp, hq) = (hosts.get(p), hosts.get(q));
        let (rp, rq) = (hp.router.0, hq.router.0);
        let exact = |d: f32| f64::from((hp.last_hop_ms + f64::from(d) + hq.last_hop_ms) as f32);
        let tier = |hot, sketch, base| TierStats {
            hot,
            sketch,
            base,
            ..TierStats::default()
        };
        let hot = oracle.hot.read().expect("hot tier lock poisoned");
        if rp == rq {
            return (exact(0.0), tier(1, 0, 0));
        }
        if let Some(row) = hot.row(rp) {
            return (exact(row[rq as usize]), tier(1, 0, 0));
        }
        if let Some(row) = hot.row(rq) {
            return (exact(row[rp as usize]), tier(1, 0, 0));
        }
        let (lo, up) = sketch.bounds(p, q);
        if up <= oracle.tightness * lo {
            return (0.5 * (lo + up), tier(0, 1, 0));
        }
        let est = oracle.coords.latency_ms(p, q);
        let v = if est.is_nan() {
            lo
        } else {
            est.max(lo).min(up)
        };
        (v, tier(0, 0, 1))
    }

    #[test]
    #[should_panic(expected = "sketch built over another host set: host")]
    fn a_sketch_over_another_host_set_of_the_same_size_is_rejected() {
        let net = RouterNet::generate(&TransitStubConfig::default(), 8);
        let hosts = HostSet::attach(&net, 50, (3.0, 8.0), 1);
        let others = HostSet::attach(&net, 50, (3.0, 8.0), 2);
        let sketch = LandmarkSketch::build(&net, &others, &[HostId(0)]);
        let cfg = TieredConfig::default();
        TieredOracle::new(&net, &hosts, CoordStore::zeros(50, 2), sketch, &cfg);
    }

    #[test]
    fn a_sketch_over_an_equal_host_set_built_apart_is_accepted() {
        let net = RouterNet::generate(&TransitStubConfig::default(), 8);
        let hosts = HostSet::attach(&net, 50, (3.0, 8.0), 1);
        let twin = HostSet::attach(&net, 50, (3.0, 8.0), 1);
        let sketch = LandmarkSketch::build(&net, &twin, &[HostId(0)]);
        assert!(!Arc::ptr_eq(sketch.host_router(), hosts.routers()));
        let cfg = TieredConfig::default();
        let oracle = TieredOracle::new(&net, &hosts, CoordStore::zeros(50, 2), sketch, &cfg);
        assert_eq!(oracle.num_hosts(), 50);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Random batches — repeated hosts, hosts sharing a router, tiers of
        // 0, 1 and a few rows — each followed by random lookups, promoted
        // once as a batch and once host by host.
        #[test]
        fn prop_batch_promotion_equals_one_host_at_a_time(
            seed in 0u64..1000,
            hot_rows in 0usize..8,
            batches in (
                proptest::collection::vec(0usize..48, 0..40),
                proptest::collection::vec(0usize..48, 0..40),
            ),
            lookups in proptest::collection::vec((0usize..48, 0u32..600), 0..40),
        ) {
            const N: usize = 600;
            let net = RouterNet::generate(&TransitStubConfig::default(), seed);
            let hosts = HostSet::attach(&net, N, (3.0, 8.0), seed.wrapping_add(1));
            let landmarks = LandmarkSketch::default_landmarks(N, 8, seed);
            let sketch = LandmarkSketch::build(&net, &hosts, &landmarks);
            let cfg = TieredConfig { hot_rows, landmarks: 8, tightness: 1.25 };
            let batch = TieredOracle::new(&net, &hosts, CoordStore::zeros(N, 2), sketch, &cfg);
            let reference = batch.clone();
            // 48 hosts in router order: neighbours often share a router.
            let mut universe: Vec<HostId> = hosts.ids().collect();
            universe.sort_by_key(|h| (hosts.routers()[h.idx()], h.0));
            universe.truncate(48);
            for picks in [&batches.0, &batches.1] {
                let hs: Vec<HostId> = picks.iter().map(|&i| universe[i]).collect();
                let (before, counted) = (batch.resident_routers(), batch.stats());
                batch.promote(&hs);
                reference_promote(&reference, &hs);
                assert_agree(&batch, &reference);
                // The batch copies exactly the rows that entered and
                // evicts exactly the rows that left.
                let after = batch.resident_routers();
                let entered = after.iter().filter(|r| !before.contains(r)).count() as u64;
                let left = before.iter().filter(|r| !after.contains(r)).count() as u64;
                let now = batch.stats();
                prop_assert_eq!(now.promotions - counted.promotions, entered);
                prop_assert_eq!(now.evictions - counted.evictions, left);
                for &(i, b) in &lookups {
                    let (a, b) = (universe[i], HostId(b));
                    prop_assert_eq!(
                        batch.latency_ms(a, b).to_bits(),
                        reference.latency_ms(a, b).to_bits()
                    );
                }
                assert_agree(&batch, &reference);
            }
        }

        // Every tier answers what it answered over the `L × N` sketch, bit
        // for bit and from the same tier: landmark endpoints, co-router
        // landmarks, hosts on a landmark's router, same-router and random
        // pairs, both argument orders, L ∈ {1, 2, 5, 16}, with a few rows
        // promoted and tightness anywhere from exact pinches to loose.
        #[test]
        fn prop_tiers_answer_as_over_the_l_by_n_sketch(
            seed in 0u64..10_000,
            n in 2usize..160,
            l_pick in 0usize..4,
            hot_rows in 0usize..6,
            tightness in 1.0f64..2.0,
            picks in (
                proptest::collection::vec((0u32..1000, 0u32..1000), 0..64),
                proptest::collection::vec(0u32..1000, 0..8),
            ),
        ) {
            let landmarks = [1, 2, 5, 16][l_pick];
            let (random, promoted) = picks;
            let (net, hosts, lms, pairs) = world(seed, n, landmarks, &random);
            let reference = reference_sketch(&net, &hosts, &lms);
            // Coordinates spread over 0–200 ms, so the base tier clamps
            // from both sides.
            let mut coords = CoordStore::zeros(n, 2);
            for h in hosts.ids() {
                let x = f64::from(h.0.wrapping_mul(2_654_435_761) % 200);
                let y = f64::from(h.0.wrapping_mul(40_503) % 200);
                coords.set(h, coords::Coord::from_slice(&[x, y]));
            }
            let cfg = TieredConfig { hot_rows, landmarks, tightness };
            let sketch = LandmarkSketch::build(&net, &hosts, &lms);
            let oracle = TieredOracle::new(&net, &hosts, coords, sketch, &cfg);
            oracle.promote(&promoted.iter().map(|&h| HostId(h % n as u32)).collect::<Vec<_>>());
            let mut want = TierStats { promotions: oracle.stats().promotions, ..TierStats::default() };
            for &(a, b) in pairs.iter().filter(|(a, b)| a != b) {
                for (p, q) in [(a, b), (b, a)] {
                    let (v, tier) = reference_latency(&oracle, &hosts, &reference, p, q);
                    prop_assert_eq!(oracle.latency_ms(p, q).to_bits(), v.to_bits());
                    want.hot += tier.hot;
                    want.sketch += tier.sketch;
                    want.base += tier.base;
                }
            }
            prop_assert_eq!(oracle.stats(), want);
        }
    }
}
