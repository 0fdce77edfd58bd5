#![warn(missing_docs)]

//! # pool — the P2P resource pool and its market-driven scheduler (§3, §5.3)
//!
//! This crate is the paper's primary contribution assembled from the
//! substrates:
//!
//! * a **DHT ring** pools every edge host with zero administration
//!   ([`dht`]),
//! * **SOMO** aggregates each host's [`report::ResourceReport`] — its degree
//!   table, coordinates and bandwidth — into a continuously refreshed global
//!   view ([`somo`]),
//! * **metrics generation** rides on leafset heartbeats: coordinates
//!   ([`coords`]) and bottleneck bandwidth ([`bwest`]),
//! * **per-session task managers** plan ALM trees with the pool's spare
//!   capacity ([`alm`], [`task_manager`]),
//! * and **degree tables** ([`degree_table`]) arbitrate contention purely by
//!   priority — the market; no global scheduler exists ([`market`]).
//!
//! ## Quick start
//!
//! ```no_run
//! use pool::{PlanConfig, PoolConfig, ResourcePool, SessionSpec};
//! use pool::degree_table::SessionId;
//!
//! let mut pool = ResourcePool::build(&PoolConfig::default(), 42);
//! let members = pool.sample_members(20, 7);
//! let spec = SessionSpec {
//!     id: SessionId(1),
//!     priority: 1,
//!     root: members[0],
//!     members,
//! };
//! let outcome = pool::task_manager::plan_and_reserve(&mut pool, &spec, &PlanConfig::default());
//! println!(
//!     "tree height {:.1} ms ({:.0}% better than AMCast, {} helpers)",
//!     outcome.oracle_height,
//!     outcome.improvement * 100.0,
//!     outcome.helpers.len()
//! );
//! ```

pub mod degree_table;
pub mod liveops;
pub mod market;
pub mod recovery;
pub mod report;
pub mod task_manager;

pub use degree_table::{DegreeTable, Rank, SessionId};
pub use liveops::{
    FrozenSnapshot, LiveOps, LiveOpsConfig, MarketDelta, MarketSnapshot, MarketStore,
    MarketStoreHandle, OpsNote, SlotSnap,
};
pub use market::{
    water_fill, AdmissionConfig, AllocationMode, ClassStatsMap, DiscoveryMode, MarketConfig,
    MarketOutcome, MarketSim, DEGRADED_CLASS,
};
pub use recovery::{
    run_pipeline, run_pipeline_traced, RecoveryConfig, RecoveryOutcome, RecoveryTimeline,
};
pub use report::{CandidateEntry, ResourceReport};
pub use task_manager::{
    plan_and_reserve, plan_and_reserve_from_query_leased, plan_and_reserve_leased,
    plan_and_reserve_with, Candidates, PlanConfig, PlanModel, PlanOutcome, PlanShape, SessionSpec,
    FAIR_HELPER_RANK,
};

use std::collections::BTreeMap;
use std::sync::Arc;

use bwest::{BwEstConfig, BwEstimates};
use coords::{CoordStore, LeafsetCoords};
use dht::Ring;
use netsim::{HostId, LatencyMatrix, Network, NetworkConfig};
use oracle::{LandmarkSketch, LatencySource, PoolOracle, TierStats, TieredOracle};
use serde::{Deserialize, Serialize};

/// One state-mutating pool call, recorded by the pool itself once
/// [`ResourcePool::enable_op_log`] is on. The sequence is the run's
/// **delta log**: drained into a `runstore::RunStore`, snapshot-plus-replay
/// ([`MarketSnapshot::apply`]) reconstructs the pool state byte for byte,
/// including mid-retry victim evictions that the planner's retry loop
/// never rolls back (see [`liveops`]). Every op is a function of the
/// degree tables and the call's arguments, never of booking history: one
/// [`HostTables`] method executes it, live and on replay alike, and the
/// replay ([`MarketSnapshot::apply`]) asserts each logged verdict.
///
/// Serializable so stores can export delta logs as JSON lines.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PoolOp {
    /// A [`ResourcePool::reserve_leased`] call and whether it succeeded.
    /// Failed reserves mutate nothing but are still recorded: the refusal
    /// shaped the plan, and the delta log is every call, not every change.
    Reserve {
        /// Host the reservation was made on.
        host: HostId,
        /// Claiming session.
        session: SessionId,
        /// Claim rank.
        rank: Rank,
        /// Degrees requested.
        count: u32,
        /// Lease deadline (`None` = permanent).
        expires_at: Option<simcore::SimTime>,
        /// Whether the reservation succeeded.
        ok: bool,
    },
    /// A [`ResourcePool::release_session`] call that freed anything.
    ReleaseSession {
        /// Session released.
        session: SessionId,
        /// Hosts the session held degrees on when released, ascending.
        hosts: Vec<HostId>,
    },
    /// A [`ResourcePool::release_degrees`] call (standby-tree rollback).
    ReleaseDegrees {
        /// Host released on.
        host: HostId,
        /// Releasing session.
        session: SessionId,
        /// Claim rank.
        rank: Rank,
        /// Degrees returned.
        count: u32,
    },
    /// A [`ResourcePool::release_on_host`] call (dropping one stranded
    /// claim).
    ReleaseOnHost {
        /// Releasing session.
        session: SessionId,
        /// Host released on.
        host: HostId,
    },
    /// A [`ResourcePool::renew_session`] call. No market path logs one: a
    /// replan renews its leases by re-reserving.
    Renew {
        /// Renewing session.
        session: SessionId,
        /// The new lease deadline.
        expires_at: simcore::SimTime,
    },
    /// An [`ResourcePool::expire_leases`] sweep.
    ExpireLeases {
        /// The sweep instant every overdue lease lapsed at.
        now: simcore::SimTime,
    },
    /// A [`ResourcePool::kill_host`] / [`ResourcePool::revive_host`]
    /// liveness flip.
    SetAlive {
        /// The host whose liveness changed.
        host: HostId,
        /// Its new state.
        alive: bool,
    },
}

/// Who holds what: every host's liveness and degree table, host order —
/// the market's one record (§5.3). The live [`ResourcePool`] owns one and
/// a replayed [`MarketSnapshot`] holds one. Each [`PoolOp`] has its one
/// implementation here: the pool calls it and logs the op, a replay
/// ([`MarketSnapshot::apply`]) calls it again and checks the verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct HostTables {
    alive: Vec<bool>,
    tables: Vec<DegreeTable>,
}

impl HostTables {
    /// Hosts with these liveness flags and degree tables, host order.
    ///
    /// # Panics
    /// If the two lists differ in length.
    pub fn new(alive: Vec<bool>, tables: Vec<DegreeTable>) -> HostTables {
        assert_eq!(alive.len(), tables.len(), "one liveness flag per table");
        HostTables { alive, tables }
    }

    /// Whether host `h` is up.
    #[inline]
    pub fn is_alive(&self, h: HostId) -> bool {
        self.alive[h.idx()]
    }

    /// The degree table of host `h`.
    #[inline]
    pub fn table(&self, h: HostId) -> &DegreeTable {
        &self.tables[h.idx()]
    }

    /// Every host's `(host, alive, table)`, host order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (HostId, bool, &DegreeTable)> + Clone {
        (0u32..)
            .map(HostId)
            .zip(self.alive.iter().zip(&self.tables))
            .map(|(h, (&alive, t))| (h, alive, t))
    }

    /// A [`PoolOp::Reserve`]: a dead host refuses even a zero-count claim.
    pub(crate) fn reserve(
        &mut self,
        h: HostId,
        session: SessionId,
        rank: Rank,
        count: u32,
        expires_at: Option<simcore::SimTime>,
    ) -> Result<Vec<(SessionId, u32)>, degree_table::InsufficientDegree> {
        if !self.alive[h.idx()] {
            return Err(degree_table::InsufficientDegree {
                requested: count,
                available: 0,
            });
        }
        self.tables[h.idx()].reserve_until(session, rank, count, expires_at)
    }

    /// A [`PoolOp::ReleaseSession`]: returns the hosts released on,
    /// ascending, and the degrees freed.
    pub(crate) fn release_session(&mut self, session: SessionId) -> (Vec<HostId>, u32) {
        let hosts = self.holdings_of(session);
        let freed = hosts
            .iter()
            .map(|h| self.tables[h.idx()].release(session))
            .sum();
        (hosts, freed)
    }

    /// A [`PoolOp::ReleaseOnHost`]. Returns the degrees freed.
    pub(crate) fn release_on_host(&mut self, session: SessionId, h: HostId) -> u32 {
        self.tables[h.idx()].release(session)
    }

    /// A [`PoolOp::ReleaseDegrees`]. Returns the degrees freed.
    pub(crate) fn release_degrees(
        &mut self,
        h: HostId,
        session: SessionId,
        rank: Rank,
        count: u32,
    ) -> u32 {
        self.tables[h.idx()].release_count(session, rank, count)
    }

    /// A [`PoolOp::Renew`]. Returns the degrees renewed.
    pub(crate) fn renew_session(
        &mut self,
        session: SessionId,
        expires_at: simcore::SimTime,
    ) -> u32 {
        self.tables
            .iter_mut()
            .map(|t| t.renew(session, expires_at))
            .sum()
    }

    /// A [`PoolOp::ExpireLeases`]. Returns `(session, degrees_reclaimed)`
    /// pairs in session order.
    pub(crate) fn expire_leases(&mut self, now: simcore::SimTime) -> Vec<(SessionId, u32)> {
        let mut reclaimed: BTreeMap<SessionId, u32> = BTreeMap::new();
        for t in &mut self.tables {
            for (s, c) in t.expire(now) {
                *reclaimed.entry(s).or_default() += c;
            }
        }
        reclaimed.into_iter().collect()
    }

    /// A [`PoolOp::SetAlive`].
    pub(crate) fn set_alive(&mut self, h: HostId, alive: bool) {
        self.alive[h.idx()] = alive;
    }

    /// Execute one logged op again, through the method the live pool
    /// called, and check it: a `Reserve` must reach its logged verdict and
    /// a `ReleaseSession` must release on its logged hosts.
    ///
    /// # Panics
    /// If either check fails: the log is not this state's.
    pub(crate) fn apply(&mut self, op: &PoolOp) {
        match *op {
            PoolOp::Reserve {
                host,
                session,
                rank,
                count,
                expires_at,
                ok,
            } => {
                let got = self.reserve(host, session, rank, count, expires_at).is_ok();
                assert!(got == ok, "replayed {op:?}, which now returns ok: {got}");
            }
            PoolOp::ReleaseSession { session, ref hosts } => {
                let (released, _) = self.release_session(session);
                assert!(released == *hosts, "replayed {op:?} on {released:?}");
            }
            PoolOp::ReleaseDegrees {
                host,
                session,
                rank,
                count,
            } => _ = self.release_degrees(host, session, rank, count),
            PoolOp::ReleaseOnHost { session, host } => _ = self.release_on_host(session, host),
            PoolOp::Renew {
                session,
                expires_at,
            } => _ = self.renew_session(session, expires_at),
            PoolOp::ExpireLeases { now } => _ = self.expire_leases(now),
            PoolOp::SetAlive { host, alive } => self.set_alive(host, alive),
        }
    }

    /// The hosts whose table books degrees for a session, ascending (empty
    /// if none).
    pub fn holdings_of(&self, session: SessionId) -> Vec<HostId> {
        self.rows()
            .filter(|&(_, _, t)| t.held_by(session) > 0)
            .map(|(h, _, _)| h)
            .collect()
    }

    /// Total degrees a session holds pool-wide, summed over the tables.
    pub fn held_total(&self, session: SessionId) -> u32 {
        self.tables.iter().map(|t| t.held_by(session)).sum()
    }

    /// Total degrees currently allocated pool-wide.
    pub fn total_used(&self) -> u32 {
        self.tables.iter().map(|t| t.used()).sum()
    }

    /// Total degree capacity of the pool (sum of all physical bounds).
    pub fn total_capacity(&self) -> u32 {
        self.tables.iter().map(|t| t.dbound()).sum()
    }

    /// Fraction of the pool's degrees currently reserved — the §5.3 goal
    /// "that the utilization of the resource pool as a whole is maximized".
    pub fn utilization(&self) -> f64 {
        self.total_used() as f64 / self.total_capacity().max(1) as f64
    }

    /// Hosts whose degree utilization (`used / dbound`) is at or above
    /// `threshold`, host order. Degree-less hosts never qualify.
    pub fn hosts_over_utilization(&self, threshold: f64) -> Vec<HostId> {
        self.rows()
            .filter(|&(_, _, t)| t.dbound() > 0 && t.used() as f64 / t.dbound() as f64 >= threshold)
            .map(|(h, _, _)| h)
            .collect()
    }
}

/// Fanout of the SOMO tree the pool aggregates over (its status index and
/// the gather experiments).
pub const SOMO_FANOUT: usize = 8;

/// Configuration for assembling a resource pool.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// The underlay network.
    pub net: NetworkConfig,
    /// Leafset size L used by the metric-generation protocols.
    pub leafset_size: usize,
    /// Refinement rounds of the leafset coordinate protocol.
    pub coord_rounds: usize,
    /// Which latency oracle planning reads go through. `Exact` (the
    /// default) plans against the exact kernel — bit-identical to the
    /// historical dense-matrix planner; `Tiered` plans against the
    /// tiered oracle's estimates (`crates/oracle`). Evaluation metrics
    /// (oracle tree heights, members-only baselines) always use the exact
    /// kernel so quality numbers stay comparable across sources.
    pub latency_source: LatencySource,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            net: NetworkConfig::default(),
            leafset_size: 32,
            coord_rounds: 12,
            latency_source: LatencySource::Exact,
        }
    }
}

/// The assembled resource pool: every host of the underlay joined into one
/// DHT ring, with generated metrics and per-host degree tables.
///
/// Its [`HostTables`] are the one record of who holds what, as in the
/// paper's market: every holdings query reads them ([`Self::tables`]), no
/// index mirrors them, and each mutating call below is a [`HostTables`]
/// method plus one logged [`PoolOp`].
#[derive(Clone)]
pub struct ResourcePool {
    /// The physical underlay (latency oracle, degree bounds, bandwidths),
    /// read-only and shared with every clone.
    pub net: Arc<Network>,
    /// The DHT ring over all hosts, read-only and shared with every clone.
    pub ring: Arc<Ring>,
    /// Leafset-generated network coordinates (the practical latency model),
    /// one buffer shared with a tiered oracle's base tier and every clone.
    pub coords: CoordStore,
    /// Leafset-generated bottleneck-bandwidth estimates, read-only and
    /// shared with every clone.
    pub bw: Arc<BwEstimates>,
    tables: HostTables,
    /// The latency oracle planning reads go through (see
    /// [`PoolConfig::latency_source`]). Cloning the pool deep-copies the
    /// tiered oracle's cache state, so what-if clones diverge.
    oracle: PoolOracle,
    /// `Some` once [`Self::enable_op_log`] is on: every mutating call is
    /// recorded here until drained (see [`PoolOp`]).
    op_log: Option<Vec<PoolOp>>,
}

impl ResourcePool {
    /// Build a pool: generate the underlay, ring every host, run the
    /// coordinate and bandwidth protocols, and initialize degree tables
    /// from the hosts' physical bounds.
    pub fn build(cfg: &PoolConfig, seed: u64) -> ResourcePool {
        let net = Network::generate(&cfg.net, simcore::rng::derive_seed(seed, 1));
        let ring = Ring::with_random_ids(net.hosts.ids(), simcore::rng::derive_seed(seed, 2));
        let coords = LeafsetCoords::new(coords::leafset::LeafsetConfig {
            leafset_size: cfg.leafset_size,
            rounds: cfg.coord_rounds,
            ..Default::default()
        })
        .run(&net.latency, &ring, simcore::rng::derive_seed(seed, 3));
        let bw = bwest::estimator::estimate(
            &net.hosts,
            &ring,
            &BwEstConfig {
                leafset_size: cfg.leafset_size,
            },
            simcore::rng::derive_seed(seed, 4),
        );
        let tables = HostTables::new(
            vec![true; net.num_hosts()],
            net.hosts
                .iter()
                .map(|(_, h)| DegreeTable::new(h.degree_bound))
                .collect(),
        );
        let oracle = match &cfg.latency_source {
            LatencySource::Exact => PoolOracle::Exact(net.latency.clone()),
            LatencySource::Tiered(tcfg) => {
                let landmarks = LandmarkSketch::default_landmarks(
                    net.num_hosts(),
                    tcfg.landmarks,
                    simcore::rng::derive_seed(seed, 7),
                );
                let sketch = LandmarkSketch::build(&net.routers, &net.hosts, &landmarks);
                // Base tier = the pool's own leafset coordinates — the
                // paper's practical latency estimator, already solved and
                // shared. Hot-tier promotions copy the kernel's resident rows.
                let tiered = TieredOracle::over_network(&net, coords.clone(), sketch, tcfg);
                PoolOracle::Tiered(tiered)
            }
        };
        ResourcePool {
            net: Arc::new(net),
            ring: Arc::new(ring),
            coords,
            bw: Arc::new(bw),
            tables,
            oracle,
            op_log: None,
        }
    }

    /// Turn on the **live op log**: from here on every state-mutating call
    /// on this pool is recorded as a [`PoolOp`], to be drained periodically
    /// with [`Self::drain_op_log`] into a run store. Idempotent; a
    /// re-enable keeps any undrained ops.
    pub fn enable_op_log(&mut self) {
        if self.op_log.is_none() {
            self.op_log = Some(Vec::new());
        }
    }

    /// Drain the live op log, keeping it enabled. Empty when logging is
    /// off.
    pub fn drain_op_log(&mut self) -> Vec<PoolOp> {
        match &mut self.op_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Whether host `h` is currently up. All hosts start alive; only an
    /// explicit [`Self::kill_host`] (driven by a fault plan) changes this.
    pub fn is_alive(&self, h: HostId) -> bool {
        self.tables.is_alive(h)
    }

    /// Mark a host crashed. Its degree table is left intact — SOMO keeps
    /// advertising the stale table until holders release or their leases
    /// lapse, exactly the stranded state the market has to recover from —
    /// but the host stops being a candidate and refuses new reservations.
    pub fn kill_host(&mut self, h: HostId) {
        self.tables.set_alive(h, false);
        self.log(|| PoolOp::SetAlive {
            host: h,
            alive: false,
        });
    }

    /// Mark a crashed host up again. Degrees still booked on it from before
    /// the crash remain booked until released or expired.
    pub fn revive_host(&mut self, h: HostId) {
        self.tables.set_alive(h, true);
        self.log(|| PoolOp::SetAlive {
            host: h,
            alive: true,
        });
    }

    /// Number of hosts in the pool.
    pub fn num_hosts(&self) -> usize {
        self.net.num_hosts()
    }

    /// A handle on the exact latency kernel. It shares the pool's
    /// [`netsim::LatencyMatrix`] storage — the call is O(1) and the
    /// returned model is **value-identical** to `self.net.latency`
    /// (bit-for-bit, see the `netsim::latency` precision contract), so
    /// planners may use either interchangeably.
    /// Planning reads [`Self::planning_oracle`] instead, the market's crash
    /// repair included; the task manager reads this handle only to score
    /// on exact latencies whatever the latency source: a plan's
    /// `oracle_height` and [`task_manager::members_only_baseline`].
    pub fn cached_latency(&self) -> LatencyMatrix {
        self.net.latency.clone()
    }

    /// The oracle *planning* reads go through, per
    /// [`PoolConfig::latency_source`]. Under `Exact` this is a zero-copy
    /// handle on the exact kernel — value-identical to
    /// [`Self::cached_latency`], so plans are bit-identical to the
    /// historical planner. Under `Tiered` the handle **shares** the
    /// pool's hot tier and hit counters (promotions made through it
    /// persist; see [`oracle::TieredOracle::share`]).
    pub fn planning_oracle(&self) -> PoolOracle {
        self.oracle.share()
    }

    /// Promote hosts' Dijkstra rows into the tiered oracle's hot tier as
    /// one batch (no-op under `Exact`). Together with the task managers'
    /// one promotion per plan ([`oracle::PoolOracle::promote_plan`]:
    /// candidate helpers, then members) this is the *only* mutation path —
    /// lookups never change cache state. The market's crash repair
    /// promotes the members this way.
    pub fn promote_hot(&self, hosts: &[HostId]) {
        self.oracle.promote(hosts);
    }

    /// Per-tier hit counters, if planning through the tiered oracle.
    pub fn oracle_stats(&self) -> Option<TierStats> {
        self.oracle.tier_stats_opt()
    }

    /// Bytes resident in the planning oracle's backing storage (the
    /// factored kernel's `A(A+1)/2·4 + N·16 + A·4` under `Exact`).
    pub fn oracle_resident_bytes(&self) -> usize {
        self.oracle.resident_bytes()
    }

    /// Exact Dijkstra rows resident in the hot tier (0 under `Exact`).
    pub fn oracle_resident_rows(&self) -> usize {
        self.oracle.resident_rows()
    }

    /// Who holds what: every host's liveness and degree table.
    pub fn tables(&self) -> &HostTables {
        &self.tables
    }

    /// The degree table of a host.
    pub fn table(&self, h: HostId) -> &DegreeTable {
        self.tables.table(h)
    }

    /// Degrees available to a claim of `rank` on host `h`. A dead host
    /// offers nothing.
    pub fn available(&self, h: HostId, rank: Rank) -> u32 {
        if !self.is_alive(h) {
            return 0;
        }
        self.table(h).available_at(rank)
    }

    /// Helper candidates for a claim of `rank`: hosts outside `exclude`
    /// with at least `min_degree` available. This is the query a task
    /// manager issues against the SOMO root view; [`Self::snapshot_report`]
    /// produces that view explicitly.
    ///
    /// **Ordering contract.** The list is fully deterministic: sorted by
    /// availability at `rank` descending, ties by host id ascending. On
    /// fresh tables the other discovery surfaces ([`report::ResourceReport`]
    /// and the `query` crate's top-k answers) hand the planner the same
    /// set at the same availability, but not always in this order: the
    /// report sorts by rank-3 availability first, so at ranks 1–2 its list
    /// can come in another. The tree does not depend on the order (the
    /// critical-node helper pick breaks score ties by host id); the tiered
    /// oracle's promotion order does.
    pub fn candidates(&self, rank: Rank, exclude: &[HostId], min_degree: u32) -> Vec<HostId> {
        let excl: std::collections::HashSet<HostId> = exclude.iter().copied().collect();
        let mut out: Vec<(u32, HostId)> = self
            .net
            .hosts
            .ids()
            .filter(|&h| self.is_alive(h) && !excl.contains(&h))
            .map(|h| (self.available(h, rank), h))
            .filter(|&(avail, _)| avail >= min_degree)
            .collect();
        out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        out.into_iter().map(|(_, h)| h).collect()
    }

    /// The pool-wide resource report — what the SOMO root holds after one
    /// full gather (see `tests/` for the flow-simulated equivalent): every
    /// live host's entry, best-first, truncated to the report's cap.
    ///
    /// The cap is the one a chain of merges would leave: every single-host
    /// report carries [`ResourceReport::DEFAULT_CAP`] and a merge keeps the
    /// smaller cap (at least 1), so as soon as one live host reports, the
    /// result is capped at `min(cap, DEFAULT_CAP)` — `usize::MAX` has
    /// always meant 512 entries, not "uncapped". With no live host nothing
    /// is merged and the empty report carries `cap` as given.
    ///
    /// Deterministic: [`ResourceReport`]'s best-first sort is a strict
    /// total order (availability per rank descending, weakest rank first,
    /// then host id ascending), so the same tables always produce the same
    /// report — including which entries survive the truncation.
    pub fn snapshot_report(&self, cap: usize) -> ResourceReport {
        // A crashed host publishes nothing: its report simply stops
        // arriving at the SOMO root.
        let entries: Vec<CandidateEntry> = self
            .net
            .hosts
            .ids()
            .filter(|&h| self.is_alive(h))
            .map(|h| CandidateEntry {
                host: h,
                avail: self.table(h).available_by_rank(),
            })
            .collect();
        let cap = if entries.is_empty() {
            cap
        } else {
            cap.clamp(1, ResourceReport::DEFAULT_CAP)
        };
        let mut r = ResourceReport { entries, cap };
        r.sort_and_cap();
        r
    }

    /// The [`query::HostSample`] host `h` would publish into the SOMO
    /// aggregation tree at time `now`: its availability at every claim
    /// rank, its first two network-coordinate dimensions (the region the
    /// aggregate histograms bucket over), and its access-link class. A dead
    /// host publishes nothing (`None`) — its stale aggregate contribution
    /// ages out of the index at the next refresh.
    pub fn host_sample(&self, h: HostId, now: simcore::SimTime) -> Option<query::HostSample> {
        if !self.is_alive(h) {
            return None;
        }
        let t = self.table(h);
        let c = self.coords.point(h);
        Some(query::HostSample {
            host: h,
            free: t.available_by_rank(),
            pos: [
                c.first().copied().unwrap_or(0.0),
                c.get(1).copied().unwrap_or(0.0),
            ],
            bw_class: self.net.hosts.bandwidth(h).class as u8,
            sampled_at: now,
            capacity: t.dbound(),
            queued: 0,
            preempted: 0,
        })
    }

    /// The whole-pool [`query::Aggregate`] at `now`, folded straight from
    /// the live hosts' samples: what a freshly refreshed
    /// [`query::QueryIndex`]'s root caches, for a reader that wants the
    /// pool-wide signal (the pressure report) and has no tree to ask.
    pub fn aggregate(&self, now: simcore::SimTime) -> query::Aggregate {
        let bounds = query::RegionBounds::default();
        let mut agg = query::Aggregate::empty();
        for s in self
            .net
            .hosts
            .ids()
            .filter_map(|h| self.host_sample(h, now))
        {
            agg.add_sample(&s, &bounds);
        }
        agg
    }

    /// Build a [`query::QueryIndex`] over the pool's ring at
    /// [`SOMO_FANOUT`], seeded with every live host's current sample. `period`
    /// is the gather interval the index will be refreshed at — the `T` in
    /// its staleness bound.
    pub fn build_query_index(
        &self,
        period: simcore::SimTime,
        now: simcore::SimTime,
    ) -> query::QueryIndex {
        query::QueryIndex::build(
            &self.ring,
            SOMO_FANOUT,
            period,
            query::RegionBounds::default(),
            |m| self.host_sample(self.ring.member(m).host, now),
        )
    }

    /// One periodic gather round: republish every live host's sample into
    /// `index` and recompute the aggregate cache (maintenance traffic is
    /// accounted inside the index).
    pub fn refresh_query_index(&self, index: &mut query::QueryIndex, now: simcore::SimTime) {
        index.refresh(|m| self.host_sample(self.ring.member(m).host, now));
    }

    /// Reserve `count` degrees on `h` for a session as a lease that lapses
    /// at `expires_at` unless renewed (`None` reserves permanently).
    /// Returns sessions that lost degrees to preemption. A dead host
    /// refuses the reservation outright — this is how a task manager
    /// planning from a stale SOMO view learns a candidate has crashed.
    pub fn reserve_leased(
        &mut self,
        h: HostId,
        session: SessionId,
        rank: Rank,
        count: u32,
        expires_at: Option<simcore::SimTime>,
    ) -> Result<Vec<(SessionId, u32)>, degree_table::InsufficientDegree> {
        let got = self.tables.reserve(h, session, rank, count, expires_at);
        // A zero-count claim that books nothing is not logged.
        if count != 0 || got.is_err() {
            let ok = got.is_ok();
            self.log(|| PoolOp::Reserve {
                host: h,
                session,
                rank,
                count,
                expires_at,
                ok,
            });
        }
        got
    }

    /// Record one op when the op log is on; `op` is built only then.
    #[inline]
    fn log(&mut self, op: impl FnOnce() -> PoolOp) {
        if let Some(log) = &mut self.op_log {
            log.push(op());
        }
    }

    /// Release everything a session holds across the pool, host by host in
    /// ascending order. Returns the number of degrees freed. Idempotent,
    /// like [`DegreeTable::release`]; a call that frees nothing is not
    /// logged.
    pub fn release_session(&mut self, session: SessionId) -> u32 {
        let (hosts, freed) = self.tables.release_session(session);
        if !hosts.is_empty() {
            self.log(|| PoolOp::ReleaseSession { session, hosts });
        }
        freed
    }

    /// Release only what a session holds on one host (used to drop the
    /// stranded claim on a crashed helper while the rest of the session
    /// keeps running). Returns the degrees freed.
    pub fn release_on_host(&mut self, session: SessionId, h: HostId) -> u32 {
        let freed = self.tables.release_on_host(session, h);
        self.log(|| PoolOp::ReleaseOnHost { session, host: h });
        freed
    }

    /// Release up to `count` degrees a session holds on `h` at `rank` — the
    /// per-tree teardown of the multipath planner: dropping one of a
    /// session's k trees returns exactly that tree's units while the other
    /// trees keep theirs. Returns the degrees freed.
    pub fn release_degrees(
        &mut self,
        h: HostId,
        session: SessionId,
        rank: Rank,
        count: u32,
    ) -> u32 {
        let freed = self.tables.release_degrees(h, session, rank, count);
        self.log(|| PoolOp::ReleaseDegrees {
            host: h,
            session,
            rank,
            count,
        });
        freed
    }

    /// Extend every lease a session holds pool-wide to `expires_at`,
    /// sweeping every table. Returns the degrees renewed; a session whose
    /// claims have already lapsed gets 0 back. The market never calls it:
    /// a replan renews its leases by re-reserving (DESIGN §9.1).
    pub fn renew_session(&mut self, session: SessionId, expires_at: simcore::SimTime) -> u32 {
        let renewed = self.tables.renew_session(session, expires_at);
        self.log(|| PoolOp::Renew {
            session,
            expires_at,
        });
        renewed
    }

    /// Lapse every overdue lease in the pool, sweeping every table.
    /// Returns `(session, degrees_reclaimed)` pairs in session order — the
    /// degrees a dead task manager leaked back to the market.
    pub fn expire_leases(&mut self, now: simcore::SimTime) -> Vec<(SessionId, u32)> {
        let reclaimed = self.tables.expire_leases(now);
        self.log(|| PoolOp::ExpireLeases { now });
        reclaimed
    }

    /// Deterministically sample `n` distinct member hosts (used by examples
    /// and tests to form sessions).
    ///
    /// # Panics
    /// If `n` exceeds the number of hosts.
    pub fn sample_members(&self, n: usize, seed: u64) -> Vec<HostId> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        assert!(
            n <= self.num_hosts(),
            "cannot sample {n} members from {} hosts",
            self.num_hosts()
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<u32> = (0..self.num_hosts() as u32).collect();
        all.shuffle(&mut rng);
        all[..n].iter().copied().map(HostId).collect()
    }

    /// Partition the pool's hosts into `k` disjoint member sets of size
    /// `size` (the Figure 10 workload: 60 non-overlapping sets of 20).
    ///
    /// # Panics
    /// If `k * size` exceeds the number of hosts.
    pub fn partition_members(&self, k: usize, size: usize, seed: u64) -> Vec<Vec<HostId>> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        assert!(
            k * size <= self.num_hosts(),
            "not enough hosts for {k} sets of {size}"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<u32> = (0..self.num_hosts() as u32).collect();
        all.shuffle(&mut rng);
        (0..k)
            .map(|i| {
                all[i * size..(i + 1) * size]
                    .iter()
                    .copied()
                    .map(HostId)
                    .collect()
            })
            .collect()
    }
}
