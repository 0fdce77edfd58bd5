//! The market: multiple concurrent sessions competing purely by priority
//! (§5.3, Figure 10).
//!
//! "As long as global, on-time and trusted knowledge is available, it may
//! be best to leave each task to compete for resources with their own
//! credentials (i.e., the priorities). This purely market-driven model
//! allows us to accomplish our goal without the need of a global scheduler
//! of any sort."
//!
//! [`MarketSim`] runs the paper's Figure 10 workload on the discrete-event
//! clock: up to 60 session *slots* with disjoint member sets of 20, random
//! start/end times, priorities 1–3. Each active session:
//!
//! * plans and reserves on start (its task manager runs *Leafset+adjust*
//!   with helpers),
//! * **replans when preempted** — a higher-priority session stole one of
//!   its helpers,
//! * **replans periodically** to pick up recently freed resources.
//!
//! The simulation records, per priority class, the improvement over the
//! members-only AMCast baseline and the number of helpers held — exactly
//! the two panels of Figure 10.
//!
//! ## Crash tolerance
//!
//! The paper's market needs "global, on-time and trusted knowledge"; this
//! simulator additionally survives the fault plans of `simcore::faults`:
//!
//! * every reservation is a **lease** renewed by the task manager's own
//!   replan period, so a crashed manager's degrees lapse back to the pool
//!   (the periodic `Ev::ExpireLeases` sweep) instead of leaking until the
//!   horizon;
//! * a crashed **helper** is detected by its owning task manager (the
//!   missed renewal ack, modeled as [`MarketConfig::detect_delay`]), which
//!   releases the stranded claim and patches the tree with the
//!   bounded-retry capped-backoff repair from
//!   [`alm::dynamic::reattach_orphans`]. The repair is the whole response:
//!   the manager re-syncs its reservations to the repaired tree
//!   **incrementally** (only the orphaned subtrees moved, so only their
//!   attachment degrees change) and keeps running. If the repair abandoned
//!   a subtree, or the re-sync cannot reserve the repaired tree (capacity
//!   moved while the repair ran), it falls back to a *full* replan once the
//!   repair's backoff-dominated duration has elapsed;
//! * a crashed **root** triggers deterministic task-manager failover: the
//!   lowest-ID surviving member becomes the deputy, reconstructs the
//!   session's holdings from the SOMO-published degree tables (the pool's
//!   authoritative holdings) and replans; a session with no survivors is
//!   lost and its leases lapse;
//! * with [`PlanConfig::k_trees`] > 1 each session also reserves up to
//!   `k_trees − 1` **degree-disjoint standby trees**
//!   ([`crate::task_manager::plan_standby_trees`]); the source pushes the
//!   stream down every tree at once, so a member keeps receiving while its
//!   root path survives in *any* tree. A crash that breaks the primary
//!   promotes the best intact standby within one detection round
//!   ([`simcore::trace::TraceEvent::MarketTreeFailover`]) and the lost
//!   trees are lazily re-planned in the background
//!   ([`simcore::trace::TraceEvent::MarketTreeRebuilt`]); per-round
//!   delivery ratios and rounds-to-restore land in
//!   [`MarketOutcome::delivery`] / [`MarketOutcome::restore_rounds`];
//! * a registerable invariant set ([`market_invariants`]) is sampled on the
//!   event clock by a [`simcore::Auditor`] — degree conservation,
//!   lease/holder consistency, tree degree bounds and cross-tree
//!   disjointness — hard-failing under `debug-assertions`.
//!
//! With an empty fault plan none of the extra events are scheduled and the
//! trajectory is bit-identical to the fault-oblivious market.

use alm::dynamic::{reattach_orphans, ReattachConfig};
use alm::multipath::{
    best_surviving, check_disjointness, delivery_ratio, delivery_ratio_lossy, tree_intact,
};
use alm::{MulticastTree, Problem};
use netsim::HostId;
use rand::Rng;
use simcore::audit::{AuditCtx, AuditReport, Auditor, InvariantSet};
use simcore::rng::derive_rng2;
use simcore::stats::OnlineStats;
use simcore::trace::{TraceEvent, TraceRecord, Tracer};
use simcore::{EventQueue, FaultPlan, MetricsRegistry, SimTime};
use std::collections::{HashSet, VecDeque};

use crate::degree_table::SessionId;
use crate::liveops::{LiveOps, MarketStoreHandle, SlotSnap};
use crate::task_manager::{
    fanout_cap, plan_and_reserve_fair_leased, plan_and_reserve_from_query_leased,
    plan_and_reserve_from_view_leased, plan_and_reserve_leased, plan_standby_trees, FairShareCaps,
    PlanConfig, SessionSpec, FAIR_HELPER_RANK,
};
use crate::ResourcePool;
use somo::traffic::TrafficLedger;

/// How task managers discover helper candidates when planning from a
/// periodically refreshed view (`view_refresh` set).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DiscoveryMode {
    /// Plan from a pool-wide snapshot report gathered up the SOMO tree —
    /// the full-scan baseline (Figure 7's compressed resource report).
    #[default]
    Snapshot,
    /// Plan from scoped top-k queries against the hierarchical aggregate
    /// index (`crates/query`) — O(k log N) wire cost per plan instead of a
    /// pool-wide gather.
    Query,
}

/// How the market divides pool degrees among competing sessions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AllocationMode {
    /// Strict priority: higher classes preempt lower ones (the paper's
    /// baseline market and the fig-10 anchor path).
    #[default]
    Priority,
    /// Weighted max-min fairness: every session plans against a
    /// water-filled fair share of the pool's free degrees (priority acts
    /// as the weight), booked at a single rank so no session can evict
    /// another.
    Pareto,
    /// Admission control: under scarcity, arriving sessions are queued
    /// with capped-backoff retries, admitted degraded, or rejected —
    /// never allowed to preempt running sessions.
    Admission,
}

/// Tuning of the [`AllocationMode::Admission`] controller.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdmissionConfig {
    /// Bound of each priority class's FIFO admission queue; arrivals
    /// beyond it under severe scarcity are rejected outright.
    pub queue_cap: usize,
    /// Base retry delay for a queued session. The delay doubles per
    /// attempt with the step capped at `backoff * 2^6` — the same
    /// capped-exponential shape as [`ReattachConfig`].
    pub backoff: SimTime,
    /// Retry attempts before a queued session is timed out and rejected.
    pub max_attempts: u32,
    /// Pool-wide free-degree fraction (at the fair helper rank) above
    /// which arrivals are admitted at full service.
    pub scarce_free_frac: f64,
    /// Free-degree fraction above which (but below `scarce_free_frac`)
    /// arrivals are admitted degraded instead of queued.
    pub degrade_free_frac: f64,
}

/// Helper-degree budget of a degraded admission.
const DEGRADED_HELPER_BUDGET: u64 = 4;
/// Member fan-out cap of a degraded admission's tree.
const DEGRADED_MEMBER_DEGREE: u32 = 2;

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_cap: 64,
            backoff: SimTime::from_secs(5),
            max_attempts: 8,
            scarce_free_frac: 0.15,
            degrade_free_frac: 0.05,
        }
    }
}

/// Mean active duration of a session: each one draws its length
/// uniformly from half to one and a half times this mean.
const MEAN_ACTIVE: SimTime = SimTime::from_secs(600);
/// How long after a root's crash the deputy concludes the task manager is
/// gone and takes over.
const FAILOVER_DELAY: SimTime = SimTime::from_secs(30);

/// Market workload configuration.
#[derive(Clone, Debug)]
pub struct MarketConfig {
    /// Number of session slots (the paper sweeps 10–60).
    pub sessions: usize,
    /// Members per session (20 in the paper).
    pub member_size: usize,
    /// Mean idle gap between a slot's sessions.
    pub mean_gap: SimTime,
    /// Period of the voluntary rescheduling pass.
    pub replan_period: SimTime,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Statistics are only recorded after this warm-up.
    pub warmup: SimTime,
    /// Planner configuration shared by all task managers.
    pub plan: PlanConfig,
    /// When set, task managers plan from a pool-wide SOMO snapshot that is
    /// only refreshed at this period — the realistic regime where helper
    /// availability can be stale and reservations may be refused. `None`
    /// plans from live degree tables (an always-fresh newscast).
    pub view_refresh: Option<SimTime>,
    /// Which discovery surface backs the refreshed view: the snapshot
    /// report (default, the fig-10 anchor path) or the hierarchical query
    /// index. Ignored when `view_refresh` is `None` (live planning).
    pub discovery: DiscoveryMode,
    /// Fault plan. Only the crash schedules are interpreted (node labels
    /// are host indices); with no crashes the market runs the zero-cost
    /// fault-oblivious path and its trajectory is bit-identical to the
    /// pre-lease simulator.
    pub faults: FaultPlan,
    /// Lease lifetime of every reservation under a non-empty fault plan.
    /// Each replan renews the session's leases, so any value comfortably
    /// above `replan_period` keeps a live session from ever lapsing.
    pub lease_ttl: SimTime,
    /// How long after a helper's crash its owning task manager notices
    /// (the missed renewal ack).
    pub detect_delay: SimTime,
    /// Enable deputy takeover on root crash. When disabled a root crash
    /// leaves the session to die and its leases to lapse — the degraded
    /// baseline the failover protocol is measured against.
    pub failover: bool,
    /// Bounded-retry/capped-backoff tuning for the mid-session crash
    /// repair.
    pub reattach: ReattachConfig,
    /// Sampling period of the invariant auditor; `None` disables auditing.
    pub audit_period: Option<SimTime>,
    /// How pool degrees are divided among competing sessions. The default
    /// `Priority` mode is the anchor path and bit-identical to the
    /// pre-admission simulator.
    pub allocation: AllocationMode,
    /// Admission-controller tuning ([`AllocationMode::Admission`] only).
    pub admission: AdmissionConfig,
    /// Inert: read by nothing. It selected the speculative parallel
    /// planner removed in PR 19 (DESIGN.md §16), whose contract was a
    /// bit-identical run at any value, so ignoring it changes no caller's
    /// result. It is still here only because the frozen benchmark package
    /// writes `plan_threads: 1` in a struct literal
    /// (`perf_e2e/src/market.rs`); the `benchmark` PR that drops that
    /// literal deletes this field with it.
    pub plan_threads: usize,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            sessions: 20,
            member_size: 20,
            mean_gap: SimTime::from_secs(60),
            replan_period: SimTime::from_secs(120),
            horizon: SimTime::from_secs(3600),
            warmup: SimTime::from_secs(600),
            plan: PlanConfig::default(),
            view_refresh: None,
            discovery: DiscoveryMode::Snapshot,
            faults: FaultPlan::none(),
            lease_ttl: SimTime::from_secs(300),
            detect_delay: SimTime::from_secs(5),
            failover: true,
            reattach: ReattachConfig::default(),
            audit_period: Some(SimTime::from_secs(60)),
            allocation: AllocationMode::default(),
            admission: AdmissionConfig::default(),
            plan_threads: 1,
        }
    }
}

/// Aggregate results for one priority class.
#[derive(Clone, Copy, Debug, Default)]
pub struct PriorityStats {
    /// Improvement over the members-only AMCast baseline.
    pub improvement: OnlineStats,
    /// Helpers held per plan.
    pub helpers: OnlineStats,
    /// Times sessions of this class were preempted.
    pub preemptions: u64,
    /// Helper reservations refused because the planning view was stale.
    pub helper_failures: u64,
    /// Held helpers that crashed mid-session on this class.
    pub helper_crashes: u64,
    /// Root crashes survived by deputy takeover.
    pub failovers: u64,
    /// Sessions lost to a root crash with no surviving member.
    pub sessions_lost: u64,
}

/// Stats class that degraded admissions report under. Priority classes
/// are 1..=3; degraded sessions keep their priority for planning but
/// their outcomes are accounted separately so service degradation is
/// visible in the results.
pub const DEGRADED_CLASS: u8 = 4;

/// Per-class statistics keyed by class id — the three priority classes
/// plus [`DEGRADED_CLASS`]. Replaces the old hardcoded
/// `[PriorityStats; 3]` so adding a class is a map entry, not index
/// arithmetic scattered across the simulator.
#[derive(Clone, Debug)]
pub struct ClassStatsMap {
    /// Sorted by class id; the four standard classes are always present.
    classes: Vec<(u8, PriorityStats)>,
}

impl Default for ClassStatsMap {
    fn default() -> Self {
        ClassStatsMap {
            classes: [1, 2, 3, DEGRADED_CLASS]
                .iter()
                .map(|&c| (c, PriorityStats::default()))
                .collect(),
        }
    }
}

impl ClassStatsMap {
    /// Stats of a class; panics on a class id that was never materialized
    /// (mirrors the out-of-bounds panic of the old fixed array).
    pub fn get(&self, class: u8) -> &PriorityStats {
        self.classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, p)| p)
            .unwrap_or_else(|| panic!("unknown stats class {class}"))
    }

    /// Mutable stats of a class, materializing it (sorted) if unseen.
    pub fn get_mut(&mut self, class: u8) -> &mut PriorityStats {
        let pos = match self.classes.iter().position(|(c, _)| *c == class) {
            Some(p) => p,
            None => {
                let p = self
                    .classes
                    .iter()
                    .position(|(c, _)| *c > class)
                    .unwrap_or(self.classes.len());
                self.classes.insert(p, (class, PriorityStats::default()));
                p
            }
        };
        &mut self.classes[pos].1
    }

    /// All `(class, stats)` entries in ascending class order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &PriorityStats)> {
        self.classes.iter().map(|(c, p)| (*c, p))
    }
}

/// Admission-controller accounting ([`AllocationMode::Admission`] runs
/// only; every counter saturates instead of wrapping).
#[derive(Clone, Debug, Default)]
pub struct AdmissionStats {
    /// Session arrivals that reached an admission decision.
    pub arrivals: u64,
    /// Arrivals admitted at full service (immediately or after queueing).
    pub admitted: u64,
    /// Arrivals admitted with degraded service.
    pub degraded: u64,
    /// Arrivals rejected: queue overflow, retry timeout, or root loss
    /// while queued.
    pub rejected: u64,
    /// The subset of rejections caused by the round-based retry timeout.
    pub timeouts: u64,
    /// Sessions still queued when the horizon closed.
    pub queued_final: u64,
    /// Largest total queue depth observed across the run.
    pub max_queue_depth: u64,
    /// Queue wait per admission in seconds (0 for immediate admissions) —
    /// the admission latency distribution.
    pub wait: OnlineStats,
}

/// Outcome of a market run.
#[derive(Clone, Debug, Default)]
pub struct MarketOutcome {
    /// Stats per class: priorities 1..=3 plus [`DEGRADED_CLASS`].
    pub per_class: ClassStatsMap,
    /// Admission-controller accounting (all-zero outside
    /// [`AllocationMode::Admission`]).
    pub admission: AdmissionStats,
    /// Helper degrees obtained per plan, per session slot — the share
    /// samples the flash-crowd bench folds into a Jain fairness index.
    /// Sized to the slot count; empty entries mean the slot never planned
    /// after warm-up.
    pub session_shares: Vec<OnlineStats>,
    /// Per-slot fairness weight — the session's priority class. Jain's
    /// index for a *weighted* allocation compares the normalized shares
    /// x_i / w_i, so an allocator that hits its weighted target exactly
    /// scores 1.0 whatever the weights are.
    pub session_weights: Vec<f64>,
    /// Total plans executed.
    pub plans: u64,
    /// Pool degree utilization sampled after every plan (the §5.3 goal of
    /// maximizing whole-pool utilization).
    pub utilization: OnlineStats,
    /// Mid-session crash repairs run (one per detection that found dead
    /// hosts in the session's tree).
    pub crash_repairs: u64,
    /// Failed re-attach attempts across all crash repairs (the bounded
    /// retries of `alm::dynamic::reattach_orphans`).
    pub crash_repair_retries: u64,
    /// Orphan subtrees abandoned after the retry budget.
    pub crash_repair_gave_up: u64,
    /// Crash repairs resolved by the incremental holdings re-sync — no
    /// full replan ran.
    pub incremental_replans: u64,
    /// Crash repairs that abandoned a subtree, or whose re-sync could not
    /// reserve the repaired tree, and fell back to a full replan.
    pub resync_fallbacks: u64,
    /// Degrees returned to the pool by lease expiry — the leakage a dead
    /// task manager would otherwise have caused.
    pub lapsed_lease_degrees: u64,
    /// Degrees still held at the horizon by sessions that are no longer
    /// active. The crash-tolerance contract is that this is 0: every
    /// crashed session either failed over or had its leases lapse.
    pub leaked_degrees: u32,
    /// Per-round, per-session delivery ratio samples (fault runs only):
    /// the fraction of a session's live members receiving through at least
    /// one of its trees, sampled every detection round after warm-up.
    pub delivery: OnlineStats,
    /// Rounds-to-restore samples: for each outage (a crash hitting the
    /// serving tree or its source), how many detection rounds passed until
    /// the session had an intact serving tree again — standby promotion,
    /// in-place repair, or full replan, whichever landed first.
    pub restore_rounds: OnlineStats,
    /// Multipath failovers: a broken primary replaced by an intact standby
    /// tree within one detection round.
    pub tree_failovers: u64,
    /// Standby trees lazily re-planned after crashes broke them.
    pub trees_rebuilt: u64,
    /// Invariant-audit results for the whole run (empty when auditing is
    /// disabled).
    pub audit: AuditReport,
    /// Wire cost of top-k query descents (Query discovery mode only).
    pub query_traffic: TrafficLedger,
    /// Wire cost of the periodic aggregate gathers that keep the query
    /// index fresh (Query discovery mode only).
    pub query_maintenance: TrafficLedger,
    /// Structured trace of the run (empty unless a tracer was attached via
    /// [`MarketSim::set_tracer`] — the default run is untraced and
    /// bit-identical to the pre-trace simulator).
    pub trace: Vec<TraceRecord>,
    /// Per-tier hit counters of the tiered latency oracle, when the pool
    /// planned through [`oracle::LatencySource::Tiered`] (`None` under
    /// `Exact` — the exact kernel has no tiers to count).
    pub oracle_tiers: Option<oracle::TierStats>,
    /// Bytes resident in the planning oracle at the end of the run (the
    /// factored kernel's `rows·R·4 + N·16` under `Exact`).
    pub oracle_resident_bytes: u64,
    /// Degree relaxations performed by session planning (primary and
    /// standby trees): the sum of every plan's own count.
    pub planner_relaxations: u64,
    /// Oracle latency estimates issued by session planning, accounted
    /// like [`MarketOutcome::planner_relaxations`].
    pub planner_latency_calls: u64,
}

impl MarketOutcome {
    /// Stats for a class (priorities 1..=3 or [`DEGRADED_CLASS`]).
    pub fn class(&self, priority: u8) -> &PriorityStats {
        self.per_class.get(priority)
    }

    /// Total failovers across classes.
    pub fn failovers(&self) -> u64 {
        self.per_class.iter().map(|(_, p)| p.failovers).sum()
    }

    /// Total lost sessions across classes.
    pub fn sessions_lost(&self) -> u64 {
        self.per_class.iter().map(|(_, p)| p.sessions_lost).sum()
    }

    /// Jain fairness index over the per-slot mean helper shares,
    /// normalized by each session's priority weight (Jain's original
    /// weighted form: φ_i = x_i / w_i). Slots that never planned
    /// post-warm-up contribute a 0 share; a missing weight counts as 1.
    pub fn jain_fairness(&self) -> f64 {
        let shares: Vec<f64> = self
            .session_shares
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let x = if s.count() == 0 { 0.0 } else { s.mean() };
                match self.session_weights.get(i) {
                    Some(&w) if w > 0.0 => x / w,
                    _ => x,
                }
            })
            .collect();
        simcore::stats::jain_index(&shares)
    }

    /// Publish the run's accounting into a [`MetricsRegistry`] under the
    /// `market.` prefix (per-class stats under `market.p<N>.`).
    pub fn publish_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add("market.plans", self.plans);
        reg.add("market.crash_repairs", self.crash_repairs);
        reg.add("market.crash_repair_retries", self.crash_repair_retries);
        reg.add("market.crash_repair_gave_up", self.crash_repair_gave_up);
        reg.add("market.incremental_replans", self.incremental_replans);
        reg.add("market.resync_fallbacks", self.resync_fallbacks);
        reg.add("market.lapsed_lease_degrees", self.lapsed_lease_degrees);
        reg.add("market.leaked_degrees", self.leaked_degrees as u64);
        reg.add("market.tree_failovers", self.tree_failovers);
        reg.add("market.trees_rebuilt", self.trees_rebuilt);
        reg.add("market.planner_relaxations", self.planner_relaxations);
        reg.add("market.planner_latency_calls", self.planner_latency_calls);
        reg.set_gauge("market.utilization_mean", self.utilization.mean());
        reg.set_gauge("market.delivery_mean", self.delivery.mean());
        reg.set_gauge("market.restore_rounds_mean", self.restore_rounds.mean());
        reg.add("market.admission.arrivals", self.admission.arrivals);
        reg.add("market.admission.admitted", self.admission.admitted);
        reg.add("market.admission.degraded", self.admission.degraded);
        reg.add("market.admission.rejected", self.admission.rejected);
        reg.add("market.admission.timeouts", self.admission.timeouts);
        reg.add("market.admission.queued_final", self.admission.queued_final);
        reg.add(
            "market.admission.max_queue_depth",
            self.admission.max_queue_depth,
        );
        reg.set_gauge("market.admission.wait_mean", self.admission.wait.mean());
        reg.set_gauge("market.jain_fairness", self.jain_fairness());
        for (n, p) in self.per_class.iter() {
            reg.add(&format!("market.p{n}.preemptions"), p.preemptions);
            reg.add(&format!("market.p{n}.helper_failures"), p.helper_failures);
            reg.add(&format!("market.p{n}.helper_crashes"), p.helper_crashes);
            reg.add(&format!("market.p{n}.failovers"), p.failovers);
            reg.add(&format!("market.p{n}.sessions_lost"), p.sessions_lost);
            reg.set_gauge(
                &format!("market.p{n}.improvement_mean"),
                p.improvement.mean(),
            );
            reg.set_gauge(&format!("market.p{n}.helpers_mean"), p.helpers.mean());
        }
        self.query_traffic.publish(reg, "market.query_traffic");
        self.query_maintenance
            .publish(reg, "market.query_maintenance");
        if let Some(t) = &self.oracle_tiers {
            reg.add("oracle.hits.hot", t.hot);
            reg.add("oracle.hits.sketch", t.sketch);
            reg.add("oracle.hits.base", t.base);
            reg.add("oracle.promotions", t.promotions);
            reg.add("oracle.evictions", t.evictions);
        }
        reg.set_gauge("oracle.resident_bytes", self.oracle_resident_bytes as f64);
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Start(usize),
    /// End of one activity cycle; stamped with the cycle so a stale end
    /// from a session lost to failover cannot kill its slot's next life.
    End(usize, u64),
    Replan(usize),
    PreemptReplan(usize),
    RefreshView,
    /// A host goes down (`true`)/comes back (`false`) per the fault plan.
    HostFault(HostId, bool),
    /// The owning task manager notices a crashed host in its session.
    DetectCrash(usize, u64),
    /// The deputy concludes the session root is dead and takes over.
    Failover(usize, u64),
    /// Lazy background rebuild of a multipath session's lost standby trees.
    RebuildTree(usize, u64),
    /// Periodic read-only delivery-accounting sample (fault runs only).
    DeliveryRound,
    /// Periodic lease-expiry sweep (scheduled only under a fault plan).
    ExpireLeases,
    /// Capped-backoff retry of a queued arrival (Admission mode only);
    /// stamped with the attempt number.
    AdmissionRetry(usize, u32),
    /// Periodic invariant-audit sample.
    Audit,
    /// Periodic live-operations snapshot round (scheduled only when a
    /// [`LiveOps`] surface is attached). Strictly read-only on market
    /// state — it mutates only the surface's private mirrors and store
    /// and emits no trace events — so attaching a store cannot perturb
    /// the trajectory.
    Snapshot,
}

struct Slot {
    spec: SessionSpec,
    active: bool,
    replan_pending: bool,
    cycle: u64,
    /// Starts deferred because no member was alive (fault runs only).
    defers: u64,
    /// The session's current reserved tree, kept for crash repair.
    tree: Option<MulticastTree>,
    /// Reserved standby trees (trees 2..=k of a multipath plan; empty at
    /// `k_trees = 1`).
    standby: Vec<MulticastTree>,
    /// When the current outage opened: a crash hit the serving tree (or
    /// its source) and no repair, promotion or replan has landed yet.
    /// Rounds-to-restore bookkeeping only.
    broken_since: Option<SimTime>,
    /// The current cycle was admitted degraded (Admission mode only):
    /// reduced helper budget, trimmed fan-out, stats under
    /// [`DEGRADED_CLASS`].
    degraded: bool,
    /// When the slot entered the admission queue; `None` when not queued.
    queued_since: Option<SimTime>,
}

/// The market simulator.
pub struct MarketSim {
    pool: ResourcePool,
    cfg: MarketConfig,
    slots: Vec<Slot>,
    queue: EventQueue<Ev>,
    outcome: MarketOutcome,
    seed: u64,
    /// The shared SOMO snapshot task managers plan from (when
    /// `cfg.view_refresh` is set and discovery is `Snapshot`).
    view: Option<crate::ResourceReport>,
    /// The hierarchical aggregate index task managers query (when
    /// `cfg.view_refresh` is set and discovery is `Query`).
    qindex: Option<query::QueryIndex>,
    /// Crash schedules present — the fault-aware paths are live.
    has_faults: bool,
    auditor: Option<Auditor>,
    tracer: Tracer,
    /// Per-priority-class admission FIFOs holding queued slot indices
    /// (Admission mode only; index 0 = class 1).
    admission_queues: [VecDeque<u32>; 3],
    /// Preemption victims observed in Admission mode — the counter behind
    /// the zero-preemption invariant, bumped regardless of warm-up.
    admission_preemptions: u64,
    /// Every market member host; Admission-mode plans exclude them as
    /// helper candidates so member-rank reserves can never evict another
    /// session's helpers.
    member_hosts: HashSet<HostId>,
    /// Pressure-signal cache: at most one pool fold per event time.
    pressure_cache: Option<(SimTime, query::PressureReport)>,
    /// Scarcity-crossing subscription; emits `MarketPressureShift` on
    /// threshold crossings of the fair-rank free fraction.
    pressure_watch: query::PressureWatch,
    /// The attached live-operations surface (see [`crate::liveops`]);
    /// `None` unless [`Self::attach_liveops`] was called.
    liveops: Option<LiveOps>,
}

/// What the planner is handed for one session: the session spec as shaped
/// for the moment (deputy root promoted, dead members dropped) plus the
/// lease the reservations carry.
struct SpecInput {
    spec: SessionSpec,
    lease: Option<SimTime>,
}

/// Why a session cannot plan right now (fault runs only).
enum NoPlan {
    /// Its root is down: the pending failover owns the session.
    RootDead,
    /// Fewer than two live members: nobody to multicast to.
    Dormant,
}

impl MarketSim {
    /// Set up a market over `pool`: disjoint member sets, priorities
    /// assigned round-robin (1, 2, 3, 1, ...), staggered first starts.
    ///
    /// # Panics
    /// If `member_size` is 0 (a session needs a root), or if a periodic
    /// event's period is zero — `replan_period`, `audit_period`,
    /// `view_refresh`, or `detect_delay` under a fault plan: each would
    /// re-arm at the same instant forever and the run would never leave
    /// it. Also if the pool is too small for the member sets
    /// ([`ResourcePool::partition_members`]).
    pub fn new(pool: ResourcePool, cfg: MarketConfig, seed: u64) -> MarketSim {
        assert!(cfg.member_size > 0, "member_size must be at least 1");
        assert!(
            cfg.replan_period > SimTime::ZERO,
            "replan_period must be positive"
        );
        assert!(
            cfg.audit_period != Some(SimTime::ZERO),
            "audit_period must be positive (None disables auditing)"
        );
        assert!(
            cfg.view_refresh != Some(SimTime::ZERO),
            "view_refresh must be positive (None plans from live tables)"
        );
        assert!(
            cfg.detect_delay > SimTime::ZERO
                || (cfg.faults.crashes.is_empty() && cfg.faults.loss <= 0.0),
            "detect_delay must be positive under a fault plan"
        );
        let sets = pool.partition_members(cfg.sessions, cfg.member_size, seed);
        let mut queue = EventQueue::new();
        let slots: Vec<Slot> = sets
            .into_iter()
            .enumerate()
            .map(|(i, members)| {
                let spec = SessionSpec {
                    id: SessionId(i as u32),
                    priority: (i % 3) as u8 + 1,
                    root: members[0],
                    members,
                };
                Slot {
                    spec,
                    active: false,
                    replan_pending: false,
                    cycle: 0,
                    defers: 0,
                    tree: None,
                    standby: Vec::new(),
                    broken_since: None,
                    degraded: false,
                    queued_since: None,
                }
            })
            .collect();
        // Stagger starts across the first gap period.
        for i in 0..slots.len() {
            let mut rng = derive_rng2(seed, 0xA11, i as u64);
            let at = SimTime::from_micros(rng.random_range(0..cfg.mean_gap.as_micros().max(1)));
            queue.schedule(at, Ev::Start(i));
        }
        if cfg.view_refresh.is_some() {
            queue.schedule(SimTime::ZERO, Ev::RefreshView);
        }
        // Fault-aware events are scheduled only when crashes exist, keeping
        // the no-op fault path's event stream identical to the legacy one.
        let has_faults = !cfg.faults.crashes.is_empty();
        if has_faults {
            let n = pool.num_hosts() as u64;
            for (at, node, down) in cfg.faults.crash_edges() {
                if node < n {
                    queue.schedule(at, Ev::HostFault(HostId(node as u32), down));
                }
            }
            queue.schedule(cfg.replan_period, Ev::ExpireLeases);
            // Delivery accounting samples once per detection round. The
            // handler is strictly read-only (no pool, RNG or schedule
            // mutation beyond its own re-arm), so the extra events cannot
            // perturb the fault trajectory; zero-fault runs schedule none
            // and stay bit-identical.
            queue.schedule(cfg.detect_delay, Ev::DeliveryRound);
        } else if cfg.faults.loss > 0.0 {
            // Message-loss-only plans still want delivery accounting; the
            // round handler stays read-only so the trajectory is otherwise
            // that of the zero-fault path.
            queue.schedule(cfg.detect_delay, Ev::DeliveryRound);
        }
        let auditor = cfg.audit_period.map(Auditor::every);
        if auditor.is_some() {
            queue.schedule(SimTime::ZERO, Ev::Audit);
        }
        let member_hosts: HashSet<HostId> = if cfg.allocation == AllocationMode::Admission {
            slots
                .iter()
                .flat_map(|s| s.spec.members.iter().copied())
                .collect()
        } else {
            HashSet::new()
        };
        let pressure_watch = query::PressureWatch::new(3, cfg.admission.scarce_free_frac);
        let outcome = MarketOutcome {
            session_shares: vec![OnlineStats::default(); slots.len()],
            session_weights: slots.iter().map(|s| s.spec.priority as f64).collect(),
            ..MarketOutcome::default()
        };
        MarketSim {
            pool,
            cfg,
            slots,
            queue,
            outcome,
            seed,
            view: None,
            qindex: None,
            has_faults,
            auditor,
            tracer: Tracer::disabled(),
            admission_queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            admission_preemptions: 0,
            member_hosts,
            pressure_cache: None,
            pressure_watch,
            liveops: None,
        }
    }

    /// Attach a tracer; its records land in [`MarketOutcome::trace`]. The
    /// default is [`Tracer::disabled`], which costs one branch per
    /// instrumentation site and leaves the trajectory untouched.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach a live-operations surface (see [`crate::liveops`]): the
    /// tracer is rewired to stream every record into the surface's run
    /// store, the pool's live op log is enabled so every mutation lands in
    /// the store's delta log, and a periodic snapshot round is scheduled.
    /// Returns the shared store handle the operator queries.
    ///
    /// The attachment is trajectory-neutral: the run's events, RNG draws
    /// and final state are byte-identical to the same seed without a
    /// surface (the trace-equivalence gate in `tests/liveops.rs`).
    ///
    /// # Panics
    /// If the surface's `snapshot_period` is zero: the snapshot round
    /// would re-arm at the same instant forever. If one of its standing
    /// queries was registered by a member the pool's ring does not have
    /// (the message names the subscription): its first evaluation would
    /// otherwise fail inside the run.
    pub fn attach_liveops(&mut self, lo: LiveOps) -> MarketStoreHandle {
        assert!(
            lo.snapshot_period() > SimTime::ZERO,
            "LiveOpsConfig::snapshot_period must be positive"
        );
        lo.check_members(self.pool.ring.len());
        let handle = lo.handle();
        self.tracer = Tracer::with_sink(Box::new(runstore::StoreSink::new(handle.clone())));
        self.pool.enable_op_log();
        self.queue.schedule(SimTime::ZERO, Ev::Snapshot);
        self.liveops = Some(lo);
        handle
    }

    /// The market's slot states as store-ready mirrors.
    fn slot_snaps(&self) -> Vec<SlotSnap> {
        self.slots
            .iter()
            .map(|s| SlotSnap {
                session: s.spec.id.0,
                active: s.active,
                replan_pending: s.replan_pending,
                cycle: s.cycle,
                degraded: s.degraded,
                defers: s.defers,
                queued_since_us: s.queued_since.map(|t| t.as_micros()),
                broken_since_us: s.broken_since.map(|t| t.as_micros()),
            })
            .collect()
    }

    /// The admission FIFOs as store-ready mirrors.
    fn queue_snaps(&self) -> [Vec<u32>; 3] {
        [
            self.admission_queues[0].iter().copied().collect(),
            self.admission_queues[1].iter().copied().collect(),
            self.admission_queues[2].iter().copied().collect(),
        ]
    }

    /// Absorb one handled event's changes into the attached store: the
    /// drained pool op log plus any slot/queue transitions. No-op without
    /// a surface.
    fn store_sync(&mut self, at: SimTime) {
        let Some(mut lo) = self.liveops.take() else {
            return;
        };
        let ops = self.pool.drain_op_log();
        let slots = self.slot_snaps();
        let queues = self.queue_snaps();
        lo.sync(at, ops, &slots, &queues);
        self.liveops = Some(lo);
    }

    /// Run to the configured horizon and return the aggregated outcome.
    pub fn run(self) -> MarketOutcome {
        self.run_full().0
    }

    /// Run to the horizon and return both the outcome and the final pool —
    /// the degree tables at the horizon are part of the determinism and
    /// leak-freedom contracts.
    pub fn run_full(mut self) -> (MarketOutcome, ResourcePool) {
        while let Some(t) = self.queue.peek_time() {
            if t > self.cfg.horizon {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.handle(now, ev);
            if self.liveops.is_some() {
                self.store_sync(now);
            }
        }
        // Closing snapshot round at the horizon: the final degree tables,
        // slot states and queues the replay-determinism gate reconstructs
        // toward.
        if self.liveops.is_some() {
            self.store_sync(self.cfg.horizon);
            let slots = self.slot_snaps();
            let queues = self.queue_snaps();
            if let Some(mut lo) = self.liveops.take() {
                lo.snapshot_round(self.cfg.horizon, &self.pool, &slots, &queues);
                self.liveops = Some(lo);
            }
        }
        self.outcome.admission.queued_final = self.queued_now();
        // Closing audit sample at the horizon, then the leak census: any
        // degrees still booked to a session that is no longer active were
        // neither released nor lapsed — exactly what leases must prevent.
        self.audit_sample(self.cfg.horizon);
        for slot in &self.slots {
            if !slot.active {
                self.outcome.leaked_degrees += self.pool.held_total(slot.spec.id);
            }
        }
        if let Some(aud) = self.auditor.take() {
            self.outcome.audit = aud.into_report();
        }
        if let Some(idx) = &self.qindex {
            self.outcome.query_traffic.absorb(&idx.query_traffic());
            self.outcome
                .query_maintenance
                .absorb(&idx.maintenance_traffic());
        }
        self.outcome.oracle_tiers = self.pool.oracle_stats();
        self.outcome.oracle_resident_bytes = self.pool.oracle_resident_bytes() as u64;
        // A custom sink (live-operations store) owns its records; the
        // outcome's inline trace is then empty and the store is the
        // authoritative copy.
        self.outcome.trace = self.tracer.take_records().unwrap_or_default();
        (self.outcome, self.pool)
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Start(i) => {
                let Some(root) = self.start_root(i) else {
                    // Nobody survived to host the task manager: the start
                    // is deferred by one gap.
                    self.slots[i].defers += 1;
                    let mut rng = derive_rng2(self.seed, 0x0F00 + i as u64, self.slots[i].defers);
                    let gap = jittered(self.cfg.mean_gap, &mut rng);
                    self.queue.schedule(now + gap, Ev::Start(i));
                    return;
                };
                self.slots[i].spec.root = root;
                if self.cfg.allocation == AllocationMode::Admission {
                    self.outcome.admission.arrivals =
                        self.outcome.admission.arrivals.saturating_add(1);
                    self.admission_decide(i, 0, now);
                } else {
                    self.begin_session(i, now, false);
                }
            }
            Ev::End(i, cycle) => {
                if !self.slots[i].active || self.slots[i].cycle != cycle {
                    // A stale end for a cycle that was already lost to a
                    // root crash; the slot's next life is scheduled by the
                    // failover path.
                    return;
                }
                self.slots[i].active = false;
                self.reset_trees(i);
                self.pool.release_session(self.slots[i].spec.id);
                let session = self.slots[i].spec.id.0;
                self.tracer
                    .emit(now, || TraceEvent::MarketRelease { session });
                let mut rng = derive_rng2(self.seed, 0x0E00 + i as u64, cycle);
                let gap = jittered(self.cfg.mean_gap, &mut rng);
                self.queue.schedule(now + gap, Ev::Start(i));
            }
            Ev::Replan(i) => {
                if self.slots[i].active {
                    let session = self.slots[i].spec.id.0;
                    self.tracer.emit(now, || TraceEvent::MarketReplan {
                        session,
                        preempt: false,
                    });
                    self.plan(i, now);
                    self.queue
                        .schedule(now + self.cfg.replan_period, Ev::Replan(i));
                }
            }
            Ev::PreemptReplan(i) => {
                self.slots[i].replan_pending = false;
                if self.slots[i].active {
                    let session = self.slots[i].spec.id.0;
                    self.tracer.emit(now, || TraceEvent::MarketReplan {
                        session,
                        preempt: true,
                    });
                    self.plan(i, now);
                }
            }
            Ev::RefreshView => {
                match self.cfg.discovery {
                    DiscoveryMode::Snapshot => {
                        self.view = Some(
                            self.pool
                                .snapshot_report(crate::ResourceReport::DEFAULT_CAP),
                        );
                    }
                    DiscoveryMode::Query => {
                        let period = self.cfg.view_refresh.expect("RefreshView scheduled");
                        let pool = &self.pool;
                        match &mut self.qindex {
                            Some(idx) => pool.refresh_query_index(idx, now),
                            None => self.qindex = Some(pool.build_query_index(period, now)),
                        }
                    }
                }
                if let Some(period) = self.cfg.view_refresh {
                    self.queue.schedule(now + period, Ev::RefreshView);
                }
            }
            Ev::HostFault(h, down) => {
                self.tracer
                    .emit(now, || TraceEvent::MarketHostFault { host: h.0, down });
                if down {
                    self.pool.kill_host(h);
                    self.on_host_down(h, now);
                } else {
                    self.pool.revive_host(h);
                }
            }
            Ev::DetectCrash(i, cycle) => self.detect_crash(i, cycle, now),
            Ev::Failover(i, cycle) => self.failover(i, cycle, now),
            Ev::RebuildTree(i, cycle) => self.rebuild_standby(i, cycle, now),
            Ev::DeliveryRound => {
                self.sample_delivery(now);
                self.queue
                    .schedule(now + self.cfg.detect_delay, Ev::DeliveryRound);
            }
            Ev::AdmissionRetry(i, attempt) => {
                if self.slots[i].queued_since.is_none() || self.slots[i].active {
                    return;
                }
                // A queued root that died hands the waiting spot to a
                // surviving member, or the arrival is bounced.
                let Some(root) = self.start_root(i) else {
                    self.admission_reject(i, now, false);
                    return;
                };
                self.slots[i].spec.root = root;
                self.admission_decide(i, attempt, now);
            }
            Ev::ExpireLeases => {
                let mut lapsed = 0u64;
                for (_, degrees) in self.pool.expire_leases(now) {
                    lapsed += degrees as u64;
                }
                self.outcome.lapsed_lease_degrees += lapsed;
                if lapsed > 0 {
                    self.tracer
                        .emit(now, || TraceEvent::MarketLeasesLapsed { degrees: lapsed });
                }
                self.queue
                    .schedule(now + self.cfg.replan_period, Ev::ExpireLeases);
            }
            Ev::Audit => {
                self.audit_sample(now);
                if let Some(period) = self.cfg.audit_period {
                    self.queue.schedule(now + period, Ev::Audit);
                }
            }
            Ev::Snapshot => {
                // Read-only beyond the surface's own mirrors and store:
                // no pool mutation, no RNG draw, no trace emission.
                let slots = self.slot_snaps();
                let queues = self.queue_snaps();
                if let Some(mut lo) = self.liveops.take() {
                    lo.snapshot_round(now, &self.pool, &slots, &queues);
                    let period = lo.snapshot_period();
                    self.liveops = Some(lo);
                    self.queue.schedule(now + period, Ev::Snapshot);
                }
            }
        }
    }

    /// The deterministic deputy choice: the surviving member with the
    /// lowest host ID.
    fn lowest_live_member(&self, i: usize) -> Option<HostId> {
        self.slots[i]
            .spec
            .members
            .iter()
            .copied()
            .filter(|&m| self.pool.is_alive(m))
            .min()
    }

    /// Who hosts slot `i`'s task manager when its session starts (or
    /// leaves the admission queue): the designated root, or — if a crash
    /// took it — the deputy. `None` when no member survived.
    fn start_root(&self, i: usize) -> Option<HostId> {
        let root = self.slots[i].spec.root;
        if !self.has_faults || self.pool.is_alive(root) {
            Some(root)
        } else {
            self.lowest_live_member(i)
        }
    }

    /// Forget slot `i`'s trees and any open outage window. What happens to
    /// the degrees they booked — released, or left to lapse with a dead
    /// manager's leases — is the caller's decision.
    fn reset_trees(&mut self, i: usize) {
        self.slots[i].tree = None;
        self.slots[i].standby.clear();
        self.slots[i].broken_since = None;
    }

    /// Shape a slot's `spec` for the planner at `now`. Under a fault plan
    /// dead members are dropped (survivors carry on) and the reservations
    /// are leased one TTL out: reserving IS renewing, so each replan is the
    /// session's heartbeat.
    fn shape_spec(&self, mut spec: SessionSpec, now: SimTime) -> Result<SpecInput, NoPlan> {
        let mut lease = None;
        if self.has_faults {
            if !self.pool.is_alive(spec.root) {
                return Err(NoPlan::RootDead);
            }
            spec.members.retain(|&m| self.pool.is_alive(m));
            if spec.members.len() < 2 {
                return Err(NoPlan::Dormant);
            }
            lease = Some(now + self.cfg.lease_ttl);
        }
        Ok(SpecInput { spec, lease })
    }

    /// Open one activity cycle for a slot: the legacy `Ev::Start` tail,
    /// factored out so every allocation mode schedules the identical event
    /// stream and draws the identical RNG tags (0x0D00 duration draw).
    fn begin_session(&mut self, i: usize, now: SimTime, degraded: bool) {
        self.slots[i].degraded = degraded;
        self.slots[i].active = true;
        self.slots[i].cycle += 1;
        self.plan(i, now);
        let cycle = self.slots[i].cycle;
        let mut rng = derive_rng2(self.seed, 0x0D00 + i as u64, cycle);
        let dur = jittered(MEAN_ACTIVE, &mut rng);
        self.queue.schedule(now + dur, Ev::End(i, cycle));
        self.queue
            .schedule(now + self.cfg.replan_period, Ev::Replan(i));
    }

    /// Sessions currently sitting in an admission queue.
    fn queued_now(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.queued_since.is_some())
            .count() as u64
    }

    /// Pool-wide pressure signal: the SOMO root aggregate when the query
    /// index is live, otherwise a direct fold of every live host's sample
    /// (the controller's local stand-in for the published aggregate),
    /// with the controller's own queue depth and preemption count folded
    /// in. Cached per event time.
    fn cluster_pressure(&mut self, now: SimTime) -> query::PressureReport {
        if let Some((at, pr)) = self.pressure_cache {
            if at == now {
                return pr;
            }
        }
        let mut agg = match &self.qindex {
            Some(idx) => idx.root_aggregate().clone(),
            None => self.pool.aggregate(now),
        };
        agg.queued = agg.queued.saturating_add(self.queued_now());
        agg.preempted = agg.preempted.saturating_add(self.admission_preemptions);
        let pr = agg.pressure();
        if let Some(scarce) = self.pressure_watch.observe(&agg) {
            self.tracer
                .emit(now, || TraceEvent::MarketPressureShift { scarce });
        }
        self.pressure_cache = Some((now, pr));
        pr
    }

    /// Retry delay for a queued arrival: `backoff * 2^(attempt-1)` with
    /// the exponent capped at 6 — the [`ReattachConfig`] backoff shape.
    fn admission_retry_delay(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1).min(6);
        SimTime::from_micros(
            self.cfg
                .admission
                .backoff
                .as_micros()
                .saturating_mul(1u64 << exp),
        )
    }

    /// Remove a slot from its admission queue (if queued) and return how
    /// long it waited, in microseconds.
    fn admission_dequeue(&mut self, i: usize, now: SimTime) -> u64 {
        let Some(t0) = self.slots[i].queued_since.take() else {
            return 0;
        };
        let class = (self.slots[i].spec.priority - 1) as usize;
        self.admission_queues[class].retain(|&j| j != i as u32);
        now.as_micros().saturating_sub(t0.as_micros())
    }

    /// The admission decision for an arrival (attempt 0) or a queued
    /// retry: admit at full service, admit degraded, queue with capped
    /// backoff, or reject. Every arrival resolves to exactly one of
    /// admitted/degraded/rejected/still-queued — the conservation
    /// invariant the auditor checks.
    fn admission_decide(&mut self, i: usize, attempt: u32, now: SimTime) {
        let pr = self.cluster_pressure(now);
        let free = pr.free_frac[FAIR_HELPER_RANK.0 as usize];
        let session = self.slots[i].spec.id.0;
        if free >= self.cfg.admission.scarce_free_frac {
            let waited_us = self.admission_dequeue(i, now);
            self.outcome.admission.admitted = self.outcome.admission.admitted.saturating_add(1);
            self.outcome.admission.wait.push(waited_us as f64 / 1e6);
            self.tracer
                .emit(now, || TraceEvent::MarketAdmissionAdmitted {
                    session,
                    waited_us,
                });
            self.begin_session(i, now, false);
        } else if free >= self.cfg.admission.degrade_free_frac {
            let waited_us = self.admission_dequeue(i, now);
            self.outcome.admission.degraded = self.outcome.admission.degraded.saturating_add(1);
            self.outcome.admission.wait.push(waited_us as f64 / 1e6);
            self.tracer
                .emit(now, || TraceEvent::MarketAdmissionDegraded {
                    session,
                    waited_us,
                });
            self.begin_session(i, now, true);
        } else if attempt == 0 {
            // A fresh arrival under severe scarcity: queue it, or bounce
            // it when its class FIFO is full.
            let class = self.slots[i].spec.priority;
            let q = &mut self.admission_queues[(class - 1) as usize];
            if q.len() >= self.cfg.admission.queue_cap {
                self.admission_reject(i, now, false);
            } else {
                q.push_back(i as u32);
                let depth = q.len() as u32;
                self.slots[i].queued_since = Some(now);
                self.outcome.admission.max_queue_depth = self
                    .outcome
                    .admission
                    .max_queue_depth
                    .max(self.queued_now());
                self.tracer.emit(now, || TraceEvent::MarketAdmissionQueued {
                    session,
                    class,
                    depth,
                });
                self.queue.schedule(
                    now + self.admission_retry_delay(1),
                    Ev::AdmissionRetry(i, 1),
                );
            }
        } else if attempt >= self.cfg.admission.max_attempts {
            self.outcome.admission.timeouts = self.outcome.admission.timeouts.saturating_add(1);
            self.admission_reject(i, now, true);
        } else {
            let next = attempt + 1;
            self.queue.schedule(
                now + self.admission_retry_delay(next),
                Ev::AdmissionRetry(i, next),
            );
        }
    }

    /// Bounce an arrival: account the rejection and schedule the slot's
    /// next life after a fresh gap on the defer stream (rejections and
    /// dead-root deferrals share the 0x0F00 RNG tag).
    fn admission_reject(&mut self, i: usize, now: SimTime, timeout: bool) {
        let _ = self.admission_dequeue(i, now);
        self.outcome.admission.rejected = self.outcome.admission.rejected.saturating_add(1);
        let session = self.slots[i].spec.id.0;
        self.tracer
            .emit(now, || TraceEvent::MarketAdmissionRejected {
                session,
                timeout,
            });
        self.slots[i].defers += 1;
        let mut rng = derive_rng2(self.seed, 0x0F00 + i as u64, self.slots[i].defers);
        let gap = jittered(self.cfg.mean_gap, &mut rng);
        self.queue.schedule(now + gap, Ev::Start(i));
    }

    /// The class a slot's stats land under: its priority, or
    /// [`DEGRADED_CLASS`] while admitted degraded.
    fn stats_class(&self, i: usize) -> u8 {
        if self.slots[i].degraded {
            DEGRADED_CLASS
        } else {
            self.slots[i].spec.priority
        }
    }

    /// The rank helpers are booked at: per-priority in the preempting
    /// Priority market, the single fair rank in Pareto/Admission modes
    /// (equal ranks never preempt).
    fn helper_booking_rank(&self, priority: u8) -> crate::Rank {
        match self.cfg.allocation {
            AllocationMode::Priority => crate::Rank::helper(priority),
            AllocationMode::Pareto | AllocationMode::Admission => FAIR_HELPER_RANK,
        }
    }

    /// Weighted max-min fair helper budgets of every slot: water-fill the
    /// pool's current non-member capacity over the active slots,
    /// weighting by priority (higher class, larger weight). Slot `i` is
    /// treated as active even if its flag is not yet set (it is the slot
    /// about to plan).
    fn pareto_shares(&self, i: usize) -> Vec<u64> {
        let mut capacity = 0u64;
        for h in (0..self.pool.num_hosts()).map(|x| HostId(x as u32)) {
            if !self.pool.is_alive(h) {
                continue;
            }
            let t = self.pool.table(h);
            capacity += t.dbound().saturating_sub(t.member_held()) as u64;
        }
        let entries: Vec<(f64, u64)> = self
            .slots
            .iter()
            .enumerate()
            .map(|(k, s)| {
                if s.active || k == i {
                    // Priority is the weight: the paper's class 3 stays
                    // the premium class, but fairly — it gets a larger
                    // share, never the power to evict.
                    (s.spec.priority as f64, 2 * s.spec.members.len() as u64)
                } else {
                    (0.0, 0)
                }
            })
            .collect();
        water_fill(capacity, &entries)
    }

    /// Fair-rank degrees `session` currently holds across the pool.
    fn fair_held(&self, session: SessionId) -> u64 {
        self.pool
            .holdings_of(session)
            .iter()
            .map(|&h| {
                self.pool
                    .table(h)
                    .allocations()
                    .iter()
                    .filter(|a| a.session == session && a.rank == FAIR_HELPER_RANK)
                    .map(|a| a.count as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Enforce the water-fill: a max-min allocation is only max-min if
    /// shrinking shares are reclaimed. As the crowd grows, every
    /// incumbent's share falls — without this trim the fair rank is
    /// first-come-first-served with a cap, and latecomers water-fill an
    /// already-drained pool. Incumbents holding more fair-rank degrees
    /// than their current share are trimmed down to it and replan like
    /// any revocation victim (so the churn is visible in the preemption
    /// counters, honestly — fair is not free).
    fn reclaim_overshare(&mut self, i: usize, shares: &[u64], now: SimTime) {
        let mut victims: Vec<SessionId> = Vec::new();
        for (j, &share) in shares.iter().enumerate() {
            if j == i || !self.slots[j].active || self.slots[j].replan_pending {
                continue;
            }
            let sid = self.slots[j].spec.id;
            let mut excess = self.fair_held(sid).saturating_sub(share);
            if excess == 0 {
                continue;
            }
            // Holdings order is insertion order — deterministic; the
            // victim replans wholesale anyway, so which hosts lose the
            // trimmed degrees does not matter beyond replayability.
            for h in self.pool.holdings_of(sid).to_vec() {
                if excess == 0 {
                    break;
                }
                let take = u32::try_from(excess).unwrap_or(u32::MAX);
                let freed = self.pool.release_degrees(h, sid, FAIR_HELPER_RANK, take);
                excess = excess.saturating_sub(freed as u64);
            }
            victims.push(sid);
        }
        self.notify_preempted(&victims, now);
    }

    /// A host went down: route the event to every session it touches.
    fn on_host_down(&mut self, h: HostId, now: SimTime) {
        for i in 0..self.slots.len() {
            let slot = &self.slots[i];
            if !slot.active {
                continue;
            }
            let cycle = slot.cycle;
            let is_root = slot.spec.root == h;
            let in_tree = slot.tree.as_ref().is_some_and(|t| t.contains(h));
            if is_root {
                // The serving tree lost its source: open the outage window
                // the deputy's replan will close.
                if slot.tree.is_some() && slot.broken_since.is_none() {
                    self.slots[i].broken_since = Some(now);
                }
                if self.cfg.failover {
                    // The deputy notices the silent task manager after the
                    // failover delay (a missed renewal round).
                    self.queue
                        .schedule(now + FAILOVER_DELAY, Ev::Failover(i, cycle));
                }
                // Without failover the session dies in place; its leases
                // lapse through the expiry sweep.
            } else if in_tree || self.pool.holds_on(slot.spec.id, h) {
                // A standby-only loss (the host is held but not in the
                // serving tree) does not open the outage window: the
                // primary keeps delivering throughout.
                if in_tree && slot.broken_since.is_none() {
                    self.slots[i].broken_since = Some(now);
                }
                self.queue
                    .schedule(now + self.cfg.detect_delay, Ev::DetectCrash(i, cycle));
            }
        }
    }

    /// The owning task manager notices dead hosts in its session: release
    /// the stranded claims, patch the tree with the bounded-retry repair,
    /// and re-sync the reservations to the repaired tree (a full replan,
    /// once the repair has settled, only when that fails).
    fn detect_crash(&mut self, i: usize, cycle: u64, now: SimTime) {
        if !self.slots[i].active || self.slots[i].cycle != cycle {
            return;
        }
        let spec = self.slots[i].spec.clone();
        if !self.pool.is_alive(spec.root) {
            // The root died too; the pending failover owns this session.
            return;
        }
        // Release every stranded claim (degrees booked on hosts that are
        // now dead). `release_on_host` is idempotent, so overlapping
        // detections are harmless.
        let stranded: Vec<HostId> = self
            .pool
            .holdings_of(spec.id)
            .iter()
            .copied()
            .filter(|&x| !self.pool.is_alive(x))
            .collect();
        for x in &stranded {
            self.pool.release_on_host(spec.id, *x);
        }
        let Some(tree) = self.slots[i].tree.clone() else {
            return;
        };
        let dead: Vec<HostId> = tree
            .hosts()
            .iter()
            .copied()
            .filter(|&x| !self.pool.is_alive(x))
            .collect();
        let standby_broken = self.slots[i]
            .standby
            .iter()
            .any(|t| !tree_intact(t, |x| self.pool.is_alive(x)));
        if dead.is_empty() && !standby_broken {
            return;
        }
        {
            let (session, stranded_n, dead_n) =
                (spec.id.0, stranded.len() as u32, dead.len() as u32);
            self.tracer.emit(now, || TraceEvent::MarketCrashDetect {
                session,
                stranded: stranded_n,
                dead_in_tree: dead_n,
            });
        }
        if now >= self.cfg.warmup {
            let crashed_helpers = dead.iter().filter(|x| !spec.members.contains(x)).count();
            let class = self.stats_class(i);
            let stats = self.outcome.per_class.get_mut(class);
            stats.helper_crashes = stats.helper_crashes.saturating_add(crashed_helpers as u64);
        }
        // Fewer than two live members left: nothing to multicast to.
        // Mirror the dormant policy of `plan` — hold no degrees while
        // dormant — instead of repairing down to a tree that serves
        // nobody (the root alone, holding a zero-degree claim).
        let live_members = spec
            .members
            .iter()
            .filter(|&&m| self.pool.is_alive(m))
            .count();
        if live_members < 2 {
            self.pool.release_session(spec.id);
            self.reset_trees(i);
            let session = spec.id.0;
            self.tracer
                .emit(now, || TraceEvent::MarketRelease { session });
            return;
        }
        // Multipath sessions respond by failover, not in-place repair: an
        // intact tree (the primary, or the best standby promoted in its
        // place) keeps serving while the lost trees are lazily re-planned
        // in the background. Only when *no* tree survived does the legacy
        // repair below patch the primary.
        if !self.slots[i].standby.is_empty() && self.multipath_failover(i, cycle, now, &dead) {
            return;
        }
        if dead.is_empty() {
            return;
        }
        // Patch the broken tree in place: each orphaned subtree re-attaches
        // with bounded retries and capped exponential backoff (the PR 1
        // recovery machinery), so the session keeps flowing. Repair is a
        // planning decision, so it reads the configured latency source.
        self.pool.promote_hot(&spec.members);
        let oracle = self.pool.planning_oracle();
        let net = &self.pool.net;
        let p = Problem::new(spec.root, spec.members.clone(), &oracle, |x| {
            net.hosts.degree_bound(x)
        });
        let (repaired, report) = reattach_orphans(&p, &tree, &dead, &self.cfg.reattach);
        self.outcome.crash_repairs += 1;
        self.outcome.crash_repair_retries += report.retries;
        self.outcome.crash_repair_gave_up += report.gave_up as u64;
        self.slots[i].tree = Some(repaired.clone());
        // The repaired tree serves again (best-effort when subtrees were
        // abandoned): the outage window closes here.
        self.close_outage(i, now);
        // The repaired tree *is* the new plan — only the orphaned subtrees
        // moved, so re-syncing the reservations to it is the whole
        // response; no full replan runs. A repair that abandoned a subtree,
        // or a re-sync refused because capacity moved while the repair ran,
        // falls back to a full replan once the repair has settled.
        let repair_ev = |incremental: bool| TraceEvent::MarketCrashRepair {
            session: spec.id.0,
            incremental,
            retries: report.retries,
            gave_up: report.gave_up as u64,
        };
        if report.gave_up == 0 && self.resync_holdings(i, &repaired, now) {
            self.outcome.incremental_replans += 1;
            self.tracer.emit(now, || repair_ev(true));
            return;
        }
        self.outcome.resync_fallbacks += 1;
        self.tracer.emit(now, || repair_ev(false));
        if !self.slots[i].replan_pending {
            self.slots[i].replan_pending = true;
            let settle = report.duration.max(SimTime::from_secs(1));
            self.queue.schedule(now + settle, Ev::PreemptReplan(i));
        }
    }

    /// Re-reserve a session's holdings to mirror `tree` exactly: members
    /// at member rank, everything else at the session's priority rank,
    /// leased one TTL out (re-syncing IS renewing, like [`Self::plan`]).
    /// Returns `false` — with the session's claims released, so the
    /// fallback full replan starts clean — if any host refuses. Preemption
    /// victims are notified exactly as [`Self::plan`] notifies them.
    fn resync_holdings(&mut self, i: usize, tree: &MulticastTree, now: SimTime) -> bool {
        let spec = self.slots[i].spec.clone();
        let helper_rank = self.helper_booking_rank(spec.priority);
        let lease = Some(now + self.cfg.lease_ttl);
        self.pool.release_session(spec.id);
        let mut preempted: Vec<SessionId> = Vec::new();
        for &h in tree.hosts() {
            let rank = spec.booking_rank(h, helper_rank);
            match self
                .pool
                .reserve_leased(h, spec.id, rank, tree.degree(h), lease)
            {
                Ok(victims) => preempted.extend(victims.into_iter().map(|(s, _)| s)),
                Err(_) => {
                    self.pool.release_session(spec.id);
                    return false;
                }
            }
        }
        preempted.sort_unstable();
        preempted.dedup();
        preempted.retain(|&s| s != spec.id);
        self.notify_preempted(&preempted, now);
        true
    }

    /// Notify preemption victims: each active, not-already-pending victim
    /// replans after a 1 s revocation-notice delay. Duplicates are harmless
    /// (the pending flag absorbs them).
    fn notify_preempted(&mut self, victims: &[SessionId], now: SimTime) {
        // The zero-preemption invariant of Admission mode counts *every*
        // victim, warm-up or not — one slip anywhere fails the audit.
        if self.cfg.allocation == AllocationMode::Admission {
            self.admission_preemptions = self
                .admission_preemptions
                .saturating_add(victims.len() as u64);
        }
        for &victim in victims {
            let vi = victim.0 as usize;
            if self.slots[vi].active && !self.slots[vi].replan_pending {
                self.slots[vi].replan_pending = true;
                if now >= self.cfg.warmup {
                    let class = self.stats_class(vi);
                    let stats = self.outcome.per_class.get_mut(class);
                    stats.preemptions = stats.preemptions.saturating_add(1);
                }
                self.queue
                    .schedule(now + SimTime::from_secs(1), Ev::PreemptReplan(vi));
            }
        }
    }

    /// Close a slot's outage window, if one is open: the session has an
    /// intact serving tree again. Samples rounds-to-restore — outage
    /// duration in units of the crash-detection period — after warm-up.
    fn close_outage(&mut self, i: usize, now: SimTime) {
        let Some(t0) = self.slots[i].broken_since.take() else {
            return;
        };
        if now >= self.cfg.warmup {
            let period = self.cfg.detect_delay.as_micros().max(1) as f64;
            let rounds = now.as_micros().saturating_sub(t0.as_micros()) as f64 / period;
            self.outcome.restore_rounds.push(rounds);
        }
    }

    /// One detection round of a multipath session: promote the best intact
    /// tree to primary if the primary broke, release every broken tree's
    /// surviving claims degree-for-degree, and queue the lazy background
    /// rebuild. Returns `true` when the session is left with an intact
    /// primary — the caller's in-place repair is then unnecessary — and
    /// `false` when every tree lost a host (the legacy repair takes over;
    /// the broken standbys are already released and queued for rebuild).
    fn multipath_failover(
        &mut self,
        i: usize,
        cycle: u64,
        now: SimTime,
        dead_primary: &[HostId],
    ) -> bool {
        let session = self.slots[i].spec.id;
        let mut all: Vec<MulticastTree> = Vec::with_capacity(1 + self.slots[i].standby.len());
        all.push(
            self.slots[i]
                .tree
                .clone()
                .expect("caller cloned the primary"),
        );
        all.append(&mut self.slots[i].standby);
        let best = if dead_primary.is_empty() {
            Some(0)
        } else {
            best_surviving(&all, |x| self.pool.is_alive(x))
        };
        let Some(best) = best else {
            // No tree survived intact. Release the broken standbys — the
            // primary stays booked for the caller's in-place repair — and
            // queue the rebuild.
            for t in &all[1..] {
                self.release_tree_degrees(i, t);
            }
            self.queue
                .schedule(now + self.cfg.detect_delay, Ev::RebuildTree(i, cycle));
            return false;
        };
        if best != 0 {
            // Failover: an intact standby takes over as the serving tree
            // within this detection round.
            self.outcome.tree_failovers += 1;
            let survivor = best as u32;
            self.tracer.emit(now, || TraceEvent::MarketTreeFailover {
                session: session.0,
                survivor,
            });
        }
        let mut rebuild = false;
        for (j, t) in all.into_iter().enumerate() {
            if j == best {
                self.slots[i].tree = Some(t);
            } else if j != 0 && tree_intact(&t, |x| self.pool.is_alive(x)) {
                self.slots[i].standby.push(t);
            } else {
                // The broken old primary (when a standby took over) or a
                // broken standby: hand its surviving claims back.
                self.release_tree_degrees(i, &t);
                rebuild = true;
            }
        }
        self.close_outage(i, now);
        if rebuild {
            // Lazily re-plan the lost trees in the background, one
            // detection round out.
            self.queue
                .schedule(now + self.cfg.detect_delay, Ev::RebuildTree(i, cycle));
        }
        true
    }

    /// Return one broken tree's surviving claims to the pool: every live
    /// host gives back exactly the tree's degree there (claims on dead
    /// hosts were already swept by the stranded-claim release). Shared
    /// hosts keep the degrees the session's other trees booked —
    /// [`ResourcePool::release_degrees`] is count-exact, never a full
    /// release.
    fn release_tree_degrees(&mut self, i: usize, tree: &MulticastTree) {
        let spec = &self.slots[i].spec;
        let helper_rank = self.helper_booking_rank(spec.priority);
        for &h in tree.hosts() {
            if !self.pool.is_alive(h) {
                continue;
            }
            let rank = spec.booking_rank(h, helper_rank);
            self.pool.release_degrees(h, spec.id, rank, tree.degree(h));
        }
    }

    /// Lazy background rebuild of a multipath session's lost standby trees:
    /// plan replacements around the current primary and the surviving
    /// standbys, under the same residual-capacity and fan-out-cap rules as
    /// the original plan. Best-effort — a pool with no spare capacity
    /// leaves the session at reduced redundancy until the next replan tops
    /// it up.
    fn rebuild_standby(&mut self, i: usize, cycle: u64, now: SimTime) {
        if !self.slots[i].active || self.slots[i].cycle != cycle || self.cfg.plan.k_trees <= 1 {
            return;
        }
        let mut spec = self.slots[i].spec.clone();
        if !self.pool.is_alive(spec.root) {
            return;
        }
        spec.members.retain(|&m| self.pool.is_alive(m));
        if spec.members.len() < 2 {
            return;
        }
        let Some(primary) = self.slots[i].tree.clone() else {
            return;
        };
        if !tree_intact(&primary, |x| self.pool.is_alive(x)) {
            // The primary broke again since this rebuild was queued; the
            // pending detection round owns the session.
            return;
        }
        let existing = std::mem::take(&mut self.slots[i].standby);
        let lease = Some(now + self.cfg.lease_ttl);
        let out = plan_standby_trees(
            &mut self.pool,
            &spec,
            &self.cfg.plan,
            &primary,
            &existing,
            lease,
        );
        let added = out.trees.len() as u32;
        self.slots[i].standby = existing;
        self.slots[i].standby.extend(out.trees);
        if added > 0 {
            self.outcome.trees_rebuilt += added as u64;
            let session = spec.id.0;
            self.tracer.emit(now, || TraceEvent::MarketTreeRebuilt {
                session,
                trees: added,
            });
        }
        self.notify_preempted(&out.preempted, now);
    }

    /// One read-only delivery-accounting round: for every active session
    /// with a tree, the fraction of its live members receiving through at
    /// least one of its trees right now. Pure observation — nothing in the
    /// pool, the slots or the RNG stream is touched, so the sampling rounds
    /// cannot perturb the trajectory they measure.
    fn sample_delivery(&mut self, now: SimTime) {
        if now < self.cfg.warmup {
            return;
        }
        for slot in &self.slots {
            if !slot.active {
                continue;
            }
            let Some(tree) = &slot.tree else { continue };
            let mut trees: Vec<MulticastTree> = Vec::with_capacity(1 + slot.standby.len());
            trees.push(tree.clone());
            trees.extend(slot.standby.iter().cloned());
            let loss = self.cfg.faults.loss;
            let ratio = if loss > 0.0 {
                let round = now.as_micros() / self.cfg.detect_delay.as_micros().max(1);
                let (sim_seed, fault_seed) = (self.seed, self.cfg.faults.seed);
                delivery_ratio_lossy(
                    &trees,
                    &slot.spec.members,
                    |x| self.pool.is_alive(x),
                    |a, b| edge_delivers(sim_seed, fault_seed, round, a, b, loss),
                )
            } else {
                delivery_ratio(&trees, &slot.spec.members, |x| self.pool.is_alive(x))
            };
            self.outcome.delivery.push(ratio);
        }
    }

    /// Deputy takeover: the lowest-ID surviving member reconstructs the
    /// session from the SOMO-published degree tables (the pool's holdings
    /// are exactly what the tables advertise) and replans as the new task
    /// manager. With no survivors the session is lost and its leases are
    /// left to lapse — a dead manager cannot release anything.
    fn failover(&mut self, i: usize, cycle: u64, now: SimTime) {
        if !self.slots[i].active || self.slots[i].cycle != cycle {
            return;
        }
        let spec = self.slots[i].spec.clone();
        if self.pool.is_alive(spec.root) {
            // The root recovered before the deputy acted.
            return;
        }
        let class = self.stats_class(i);
        match self.lowest_live_member(i) {
            Some(deputy) => {
                if now >= self.cfg.warmup {
                    let stats = self.outcome.per_class.get_mut(class);
                    stats.failovers = stats.failovers.saturating_add(1);
                }
                self.tracer.emit(now, || TraceEvent::MarketFailover {
                    session: spec.id.0,
                    deputy: deputy.0,
                });
                self.slots[i].spec.root = deputy;
                // The deputy's first replan releases the dead root's
                // holdings (reconstructed from the published tables) and
                // re-reserves under fresh leases.
                self.plan(i, now);
            }
            None => {
                if now >= self.cfg.warmup {
                    let stats = self.outcome.per_class.get_mut(class);
                    stats.sessions_lost = stats.sessions_lost.saturating_add(1);
                }
                self.tracer
                    .emit(now, || TraceEvent::MarketSessionLost { session: spec.id.0 });
                self.slots[i].active = false;
                self.reset_trees(i);
                self.slots[i].defers += 1;
                let mut rng = derive_rng2(self.seed, 0x0F00 + i as u64, self.slots[i].defers);
                let gap = jittered(self.cfg.mean_gap, &mut rng);
                self.queue.schedule(now + gap, Ev::Start(i));
            }
        }
    }

    /// Take one invariant-audit sample of the current market state.
    fn audit_sample(&mut self, now: SimTime) {
        let Some(mut aud) = self.auditor.take() else {
            return;
        };
        let sessions: Vec<SessionAuditEntry<'_>> = self
            .slots
            .iter()
            .map(|s| SessionAuditEntry {
                id: s.spec.id,
                active: s.active,
                replan_pending: s.replan_pending,
                root: s.spec.root,
                tree: s.tree.as_ref(),
                standby: s.standby.as_slice(),
            })
            .collect();
        let admission =
            (self.cfg.allocation == AllocationMode::Admission).then(|| AdmissionAudit {
                arrivals: self.outcome.admission.arrivals,
                admitted: self.outcome.admission.admitted,
                degraded: self.outcome.admission.degraded,
                rejected: self.outcome.admission.rejected,
                queued_now: self.queued_now(),
                preemptions: self.admission_preemptions,
            });
        let view = MarketAuditView {
            pool: &self.pool,
            plan: &self.cfg.plan,
            sessions,
            admission,
        };
        aud.sample(&market_invariants(), &view, now);
        self.auditor = Some(aud);
    }

    fn plan(&mut self, i: usize, now: SimTime) {
        let SpecInput { spec, lease } = match self.shape_spec(self.slots[i].spec.clone(), now) {
            Ok(input) => input,
            // Root crashed between the trigger and this plan; the failover
            // path owns the session now.
            Err(NoPlan::RootDead) => return,
            Err(NoPlan::Dormant) => {
                // Hold no degrees while dormant.
                let id = self.slots[i].spec.id;
                self.pool.release_session(id);
                self.reset_trees(i);
                self.tracer
                    .emit(now, || TraceEvent::MarketRelease { session: id.0 });
                return;
            }
        };
        let out = match self.cfg.allocation {
            AllocationMode::Priority => {
                if let Some(qindex) = &mut self.qindex {
                    plan_and_reserve_from_query_leased(
                        &mut self.pool,
                        &spec,
                        &self.cfg.plan,
                        qindex,
                        lease,
                    )
                } else if let Some(view) = &self.view {
                    plan_and_reserve_from_view_leased(
                        &mut self.pool,
                        &spec,
                        &self.cfg.plan,
                        view,
                        lease,
                    )
                } else {
                    plan_and_reserve_leased(&mut self.pool, &spec, &self.cfg.plan, lease)
                }
            }
            AllocationMode::Pareto => {
                // Plan against the water-filled fair share, helpers
                // booked at the shared fair rank, over-share incumbents
                // trimmed back to theirs first. Fair modes plan from
                // live tables regardless of the discovery surface.
                let shares = self.pareto_shares(i);
                self.reclaim_overshare(i, &shares, now);
                let caps = FairShareCaps {
                    helper_budget: shares[i],
                    member_degree: None,
                    exclude: HashSet::new(),
                };
                plan_and_reserve_fair_leased(&mut self.pool, &spec, &self.cfg.plan, &caps, lease)
            }
            AllocationMode::Admission => {
                // Admitted sessions draw only free degrees on
                // non-member hosts — structurally incapable of
                // preempting. Degraded admissions additionally run on a
                // trimmed budget and fan-out.
                let caps = FairShareCaps {
                    helper_budget: if self.slots[i].degraded {
                        DEGRADED_HELPER_BUDGET
                    } else {
                        u64::MAX
                    },
                    member_degree: if self.slots[i].degraded {
                        Some(DEGRADED_MEMBER_DEGREE)
                    } else {
                        None
                    },
                    exclude: self.member_hosts.clone(),
                };
                plan_and_reserve_fair_leased(&mut self.pool, &spec, &self.cfg.plan, &caps, lease)
            }
        };
        self.slots[i].tree = Some(out.tree.clone());
        // A fresh plan is an intact serving tree: close any open outage
        // window (no-op on fault-free runs — the window never opens).
        self.close_outage(i, now);
        // Multipath sessions plan their standby trees right behind the
        // primary, against the residual capacity the primary left; the
        // planner-work sums below deliberately include this work.
        let mut preempted = out.preempted.clone();
        self.slots[i].standby.clear();
        let mut standby_work = (0u64, 0u64);
        if self.cfg.plan.k_trees > 1 && self.cfg.allocation == AllocationMode::Priority {
            let standby =
                plan_standby_trees(&mut self.pool, &spec, &self.cfg.plan, &out.tree, &[], lease);
            standby_work = (standby.relaxations, standby.latency_calls);
            preempted.extend(standby.preempted);
            self.slots[i].standby = standby.trees;
        }
        self.outcome.plans += 1;
        self.outcome.planner_relaxations += out.relaxations + standby_work.0;
        self.outcome.planner_latency_calls += out.latency_calls + standby_work.1;
        if self.tracer.is_enabled() {
            let (session, hosts) = (spec.id.0, out.tree.len() as u32);
            let degrees = self.pool.held_total(spec.id);
            let relaxations = out.relaxations + standby_work.0;
            let latency_calls = out.latency_calls + standby_work.1;
            self.tracer.emit(now, || TraceEvent::MarketReserve {
                session,
                hosts,
                degrees,
                relaxations,
                latency_calls,
            });
            if lease.is_some() {
                self.tracer
                    .emit(now, || TraceEvent::MarketLeaseRenew { session });
            }
            // Tiered-source runs also sample the oracle's per-tier
            // counters; exact-mode traces stay byte-identical.
            if let Some(t) = self.pool.oracle_stats() {
                let resident_rows = self.pool.oracle_resident_rows() as u32;
                self.tracer.emit(now, || TraceEvent::OracleTiers {
                    session,
                    hot: t.hot,
                    sketch: t.sketch,
                    base: t.base,
                    resident_rows,
                });
            }
        }
        if now >= self.cfg.warmup {
            let class = self.stats_class(i);
            let stats = self.outcome.per_class.get_mut(class);
            stats.improvement.push(out.improvement);
            stats.helpers.push(out.helpers.len() as f64);
            stats.helper_failures = stats
                .helper_failures
                .saturating_add(out.helper_failures as u64);
            self.outcome.session_shares[i].push(out.helpers.len() as f64);
            self.outcome.utilization.push(self.pool.utilization());
        }
        // Victims replan shortly (they detect the loss via their reservation
        // being revoked; modeled as a 1 s notification delay).
        self.notify_preempted(&preempted, now);
    }
}

/// One session's state as the auditor sees it.
pub struct SessionAuditEntry<'a> {
    /// Session identity.
    pub id: SessionId,
    /// Whether the session is currently active.
    pub active: bool,
    /// Whether a preemption replan is scheduled but not yet run — the
    /// session's trees are stale until it fires.
    pub replan_pending: bool,
    /// Current root (post-failover if one happened).
    pub root: HostId,
    /// The reserved tree, when one exists.
    pub tree: Option<&'a MulticastTree>,
    /// The reserved standby trees (multipath sessions; empty otherwise).
    pub standby: &'a [MulticastTree],
}

/// Read-only bundle of market state handed to the registered invariants.
pub struct MarketAuditView<'a> {
    /// The pool (degree tables, holdings, liveness).
    pub pool: &'a ResourcePool,
    /// The shared planner configuration (the fan-out caps of the
    /// tree-disjointness invariant need the stream rate).
    pub plan: &'a PlanConfig,
    /// Every session slot.
    pub sessions: Vec<SessionAuditEntry<'a>>,
    /// Admission-controller snapshot ([`AllocationMode::Admission`] runs
    /// only; `None` elsewhere, where the admission invariants are no-ops).
    pub admission: Option<AdmissionAudit>,
}

/// Admission-controller counters as the auditor sees them at one sample.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionAudit {
    /// Arrivals that reached an admission decision so far.
    pub arrivals: u64,
    /// Arrivals admitted at full service so far.
    pub admitted: u64,
    /// Arrivals admitted degraded so far.
    pub degraded: u64,
    /// Arrivals rejected so far.
    pub rejected: u64,
    /// Sessions sitting in an admission queue right now.
    pub queued_now: u64,
    /// Preemption victims observed so far (must stay 0).
    pub preemptions: u64,
}

fn inv_degree_conservation(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for h in v.pool.net.hosts.ids() {
        let t = v.pool.table(h);
        ctx.check(t.used() <= t.dbound(), || {
            format!("host {h:?} oversubscribed: {}/{}", t.used(), t.dbound())
        });
        ctx.check(t.free() + t.used() == t.dbound(), || {
            format!(
                "host {h:?} books don't balance: free {} + used {} != dbound {}",
                t.free(),
                t.used(),
                t.dbound()
            )
        });
        // No double-booking: one allocation row per (session, rank), all
        // positive, and at most one session claiming member rank (member
        // sets are disjoint by construction).
        let allocs = t.allocations();
        let mut member_sessions = 0usize;
        for (k, a) in allocs.iter().enumerate() {
            ctx.check(a.count > 0, || {
                format!("host {h:?} holds an empty allocation for {:?}", a.session)
            });
            ctx.check(
                allocs[k + 1..]
                    .iter()
                    .all(|b| (b.session, b.rank) != (a.session, a.rank)),
                || format!("host {h:?} double-books {:?} at {:?}", a.session, a.rank),
            );
            if a.rank == crate::Rank::MEMBER {
                member_sessions += 1;
            }
        }
        ctx.check(member_sessions <= 1, || {
            format!("host {h:?} claimed as member by {member_sessions} sessions")
        });
    }
}

fn inv_lease_holder_consistency(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    // Holdings → tables: every holdings entry is backed by real degrees.
    for s in v.pool.sessions_holding() {
        for &h in v.pool.holdings_of(s) {
            ctx.check(v.pool.table(h).held_by(s) > 0, || {
                format!("session {s:?} lists {h:?} but holds no degrees there")
            });
        }
    }
    // Tables → holdings: no orphan allocation outside the holdings index.
    for h in v.pool.net.hosts.ids() {
        for a in v.pool.table(h).allocations() {
            ctx.check(v.pool.holds_on(a.session, h), || {
                format!(
                    "host {h:?} books {} degrees for {:?} unknown to its holdings",
                    a.count, a.session
                )
            });
        }
    }
    // A session that is not active may only hold *leased* degrees (they
    // will lapse); permanent degrees held by an inactive session would
    // leak to the horizon.
    for s in &v.sessions {
        if s.active {
            continue;
        }
        for &h in v.pool.holdings_of(s.id) {
            ctx.check(
                v.pool
                    .table(h)
                    .allocations()
                    .iter()
                    .filter(|a| a.session == s.id)
                    .all(|a| a.expires_at.is_some()),
                || {
                    format!(
                        "inactive session {:?} holds permanent degrees on {h:?}",
                        s.id
                    )
                },
            );
        }
    }
}

fn inv_tree_degree_bounds(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for s in &v.sessions {
        let Some(tree) = s.tree else { continue };
        if !s.active {
            continue;
        }
        ctx.check(tree.root() == s.root, || {
            format!(
                "session {:?} tree rooted at {:?}, expected {:?}",
                s.id,
                tree.root(),
                s.root
            )
        });
        for &h in tree.hosts() {
            let bound = v.pool.net.hosts.degree_bound(h);
            ctx.check(tree.degree(h) <= bound, || {
                format!(
                    "session {:?} tree uses {} degrees on {h:?}, bound {bound}",
                    s.id,
                    tree.degree(h)
                )
            });
        }
    }
}

/// No degree unit double-counted across a multipath session's trees, and
/// no host driven past its access-bandwidth fan-out cap: for every active
/// session holding standby trees, the summed per-host tree degree must
/// stay within what the session has actually reserved there, and the
/// summed per-host fan-out (children only) within [`fanout_cap`].
///
/// Two transient states are exempt, both repaired within one scheduled
/// event: a session whose reservation was preempted keeps its stale trees
/// until the 1 s replan notification fires (`replan_pending`), and a tree
/// spanning a just-crashed host references degrees the stranded-claim
/// sweep already released — dead hosts are unconstrained until the
/// detection round replaces the tree.
fn inv_tree_disjointness(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for s in &v.sessions {
        if !s.active || s.replan_pending || s.standby.is_empty() {
            continue;
        }
        let Some(primary) = s.tree else { continue };
        let mut trees: Vec<MulticastTree> = Vec::with_capacity(1 + s.standby.len());
        trees.push(primary.clone());
        trees.extend_from_slice(s.standby);
        let violations = check_disjointness(
            &trees,
            |h| {
                if v.pool.is_alive(h) {
                    v.pool.table(h).held_by(s.id)
                } else {
                    u32::MAX
                }
            },
            |h| {
                if v.pool.is_alive(h) {
                    fanout_cap(v.pool, primary, v.plan, h)
                } else {
                    u32::MAX
                }
            },
        );
        ctx.check(violations.is_empty(), || {
            format!(
                "session {:?} cross-tree capacity violations: {violations:?}",
                s.id
            )
        });
    }
}

/// Queue conservation: every arrival that reached the admission
/// controller resolved to exactly one of admitted / degraded / rejected /
/// still-queued. A no-op outside Admission mode.
fn inv_admission_conservation(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    let Some(a) = v.admission else { return };
    let resolved = a.admitted + a.degraded + a.rejected + a.queued_now;
    ctx.check(a.arrivals == resolved, || {
        format!(
            "admission books don't balance: {} arrivals vs {} admitted + {} degraded + \
             {} rejected + {} queued",
            a.arrivals, a.admitted, a.degraded, a.rejected, a.queued_now
        )
    });
}

/// Admission mode never preempts: graceful degradation replaces eviction,
/// so the preemption counter must read 0 at every sample. A no-op outside
/// Admission mode.
fn inv_admission_no_preemption(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    let Some(a) = v.admission else { return };
    ctx.check(a.preemptions == 0, || {
        format!("admission mode preempted {} times", a.preemptions)
    });
}

/// The market's registered invariants: degree conservation (reserved ≤
/// capacity, no double-booking), lease/holder consistency, tree degree
/// bounds, cross-tree disjointness of multipath sessions, and the two
/// admission-controller invariants (queue conservation, zero preemption).
/// Rebuilt per sample — the set is a handful of `fn` pointers.
pub fn market_invariants<'a>() -> InvariantSet<MarketAuditView<'a>> {
    InvariantSet::new()
        .register("degree-conservation", inv_degree_conservation)
        .register("lease-holder-consistency", inv_lease_holder_consistency)
        .register("tree-degree-bounds", inv_tree_degree_bounds)
        .register("tree-disjointness", inv_tree_disjointness)
        .register("admission-conservation", inv_admission_conservation)
        .register("admission-no-preemption", inv_admission_no_preemption)
}

/// Draw a duration uniformly in [0.5, 1.5] × mean.
fn jittered(mean: SimTime, rng: &mut impl Rng) -> SimTime {
    let us = mean.as_micros().max(2);
    SimTime::from_micros(rng.random_range(us / 2..us + us / 2))
}

/// Deterministic per-(round, edge) message-loss draw for delivery
/// accounting: a pure hash stream keyed by the simulation and fault
/// seeds, independent of every scheduling RNG stream, so sampling under
/// loss stays pure observation.
fn edge_delivers(
    sim_seed: u64,
    fault_seed: u64,
    round: u64,
    parent: HostId,
    child: HostId,
    loss: f64,
) -> bool {
    let edge = ((parent.0 as u64) << 32) | child.0 as u64;
    let mut rng = derive_rng2(sim_seed ^ fault_seed.rotate_left(17), 0xD317 ^ round, edge);
    rng.random::<f64>() >= loss
}

/// Weighted max-min fair division (iterative water-filling): split
/// `capacity` units over `entries` of `(weight, demand)`, never giving an
/// entry more than its demand. Each round distributes the remaining
/// capacity proportionally to weight among unsatisfied entries; entries
/// whose demand falls below their proportional slice are satisfied
/// exactly and their leftover is re-filled to the rest. Terminates with
/// either every demand met or (integer floors aside) the capacity
/// exhausted — no entry can gain without another losing, the Pareto
/// property [`AllocationMode::Pareto`] plans against.
pub fn water_fill(capacity: u64, entries: &[(f64, u64)]) -> Vec<u64> {
    let n = entries.len();
    let mut share = vec![0u64; n];
    let mut active: Vec<usize> = (0..n)
        .filter(|&i| entries[i].1 > 0 && entries[i].0 > 0.0)
        .collect();
    let mut remaining = capacity;
    while !active.is_empty() && remaining > 0 {
        let wsum: f64 = active.iter().map(|&i| entries[i].0).sum();
        let level = remaining as f64 / wsum;
        let sat: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| (entries[i].1 - share[i]) as f64 <= entries[i].0 * level)
            .collect();
        if sat.is_empty() {
            // Nobody saturates at this water level: hand out the floored
            // proportional slices and stop (the sub-1-unit floor losses
            // per entry are the only capacity left behind).
            for &i in &active {
                let slice = (entries[i].0 * level).floor() as u64;
                let give = slice.min(entries[i].1 - share[i]).min(remaining);
                share[i] += give;
                remaining -= give;
            }
            break;
        }
        for &i in &sat {
            let give = (entries[i].1 - share[i]).min(remaining);
            share[i] += give;
            remaining -= give;
        }
        active.retain(|i| !sat.contains(i));
    }
    share
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanModel, PoolConfig, Rank};
    use netsim::NetworkConfig;

    fn small_market(sessions: usize, seed: u64) -> MarketSim {
        let pool = ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 5,
                ..PoolConfig::default()
            },
            seed,
        );
        let cfg = MarketConfig {
            sessions,
            member_size: 12,
            horizon: SimTime::from_secs(1800),
            warmup: SimTime::from_secs(300),
            plan: PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
            ..MarketConfig::default()
        };
        MarketSim::new(pool, cfg, seed)
    }

    #[test]
    fn zero_count_reservation_leaves_no_holdings_entry() {
        // A session shrunk to its root alone re-syncs a degree-0 claim
        // (the degenerate crash-repair tree). The pool must not index a
        // host the session holds nothing on — that stale entry is exactly
        // the lease-holder-consistency violation of the flash-crowd
        // sweep's small-member sessions.
        let mut pool = ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 8,
                    ..NetworkConfig::default()
                },
                coord_rounds: 2,
                ..PoolConfig::default()
            },
            7,
        );
        let s = SessionId(1);
        let h = HostId(0);
        let lease = Some(SimTime::from_secs(300));
        assert!(pool.reserve_leased(h, s, Rank::MEMBER, 0, lease).is_ok());
        assert!(
            !pool.holds_on(s, h),
            "zero-count reservation created a holdings entry"
        );
        assert_eq!(pool.holdings_of(s), &[] as &[HostId]);
        // A real claim still indexes, and releasing it cleans up fully.
        assert!(pool.reserve_leased(h, s, Rank::MEMBER, 2, lease).is_ok());
        assert!(pool.holds_on(s, h));
        pool.release_on_host(s, h);
        assert!(pool.sessions_holding().is_empty());
    }

    #[test]
    fn market_runs_and_collects_stats_for_all_classes() {
        let out = small_market(9, 1).run();
        assert!(out.plans > 9);
        for p in 1..=3u8 {
            assert!(
                out.class(p).improvement.count() > 0,
                "no samples for priority {p}"
            );
        }
    }

    #[test]
    fn improvements_stay_within_theoretical_range() {
        let out = small_market(9, 2).run();
        for p in 1..=3u8 {
            let c = out.class(p);
            assert!(
                c.improvement.mean() >= -0.05,
                "class {p} mean below lower bound"
            );
            assert!(
                c.improvement.mean() < 0.6,
                "class {p} mean above any upper bound"
            );
        }
    }

    #[test]
    fn high_priority_holds_at_least_as_many_helpers_under_contention() {
        // With heavy contention (many sessions on a small pool), priority 1
        // must not end up with fewer helpers than priority 3.
        let out = small_market(15, 3).run();
        let h1 = out.class(1).helpers.mean();
        let h3 = out.class(3).helpers.mean();
        assert!(
            h1 + 0.5 >= h3,
            "priority 1 holds {h1} helpers vs priority 3's {h3}"
        );
    }

    #[test]
    fn preemptions_hit_lower_classes_harder() {
        let out = small_market(15, 4).run();
        let p1 = out.class(1).preemptions;
        let p3 = out.class(3).preemptions;
        assert!(
            p3 >= p1,
            "priority 3 preempted {p3} times vs priority 1's {p1}"
        );
    }

    #[test]
    fn somo_view_mode_runs_and_absorbs_staleness() {
        let pool = ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 5,
                ..PoolConfig::default()
            },
            11,
        );
        let cfg = MarketConfig {
            sessions: 12,
            member_size: 12,
            horizon: SimTime::from_secs(1800),
            warmup: SimTime::from_secs(300),
            // Task managers see a snapshot refreshed only every 5 minutes
            // — plenty of room for it to go stale between plans.
            view_refresh: Some(SimTime::from_secs(300)),
            plan: PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
            ..MarketConfig::default()
        };
        let out = MarketSim::new(pool, cfg, 13).run();
        assert!(out.plans > 12);
        for p in 1..=3u8 {
            let c = out.class(p);
            assert!(c.improvement.count() > 0);
            // Stale views cost improvement but never break a session.
            assert!(c.improvement.mean() > -0.15, "class {p} collapsed");
        }
        let total_failures: u64 = (1..=3).map(|p| out.class(p).helper_failures).sum();
        // With a 5-minute-old view under churn, at least some helper
        // reservations must have been refused.
        assert!(total_failures > 0, "suspiciously zero stale failures");
    }

    #[test]
    fn query_discovery_mode_runs_and_absorbs_staleness() {
        let pool = ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 5,
                ..PoolConfig::default()
            },
            11,
        );
        let cfg = MarketConfig {
            sessions: 12,
            member_size: 12,
            horizon: SimTime::from_secs(1800),
            warmup: SimTime::from_secs(300),
            // Same 5-minute refresh as the snapshot view, but discovery
            // runs scoped top-k queries against the aggregate index.
            view_refresh: Some(SimTime::from_secs(300)),
            discovery: DiscoveryMode::Query,
            plan: PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
            ..MarketConfig::default()
        };
        let out = MarketSim::new(pool, cfg, 13).run();
        assert!(out.plans > 12);
        for p in 1..=3u8 {
            let c = out.class(p);
            assert!(c.improvement.count() > 0);
            assert!(c.improvement.mean() > -0.15, "class {p} collapsed");
        }
        // A stale index is refused exactly like a stale snapshot.
        let total_failures: u64 = (1..=3).map(|p| out.class(p).helper_failures).sum();
        assert!(total_failures > 0, "suspiciously zero stale failures");
        // Both ledgers were exercised: plans descended the tree and the
        // periodic gathers pushed aggregates up it.
        assert!(out.query_traffic.messages > 0, "no query descents charged");
        assert!(
            out.query_maintenance.messages > 0,
            "no gather rounds charged"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_market(6, 5).run();
        let b = small_market(6, 5).run();
        assert_eq!(a.plans, b.plans);
        for p in 1..=3u8 {
            assert_eq!(
                a.class(p).improvement.count(),
                b.class(p).improvement.count()
            );
            assert_eq!(a.class(p).improvement.mean(), b.class(p).improvement.mean());
        }
    }

    fn small_pool(seed: u64) -> ResourcePool {
        ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 5,
                ..PoolConfig::default()
            },
            seed,
        )
    }

    fn faulty_cfg(sessions: usize) -> MarketConfig {
        MarketConfig {
            sessions,
            member_size: 12,
            horizon: SimTime::from_secs(1800),
            warmup: SimTime::from_secs(300),
            plan: PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
            ..MarketConfig::default()
        }
    }

    #[test]
    fn helper_crashes_are_detected_repaired_and_leak_free() {
        let pool = small_pool(21);
        let seed = 21;
        let sessions = 9;
        // Crash hosts outside every member set, so only *helpers* can die:
        // the pure mid-session helper-crash path.
        let member_hosts: std::collections::HashSet<netsim::HostId> = pool
            .partition_members(sessions, 12, seed)
            .into_iter()
            .flatten()
            .collect();
        let mut faults = simcore::FaultPlan::none();
        let mut crashed = 0;
        for h in pool.net.hosts.ids() {
            if !member_hosts.contains(&h) && h.0 % 4 == 0 {
                faults = faults.crash_forever(h.0 as u64, SimTime::from_secs(700 + h.0 as u64));
                crashed += 1;
            }
        }
        assert!(crashed > 20, "fault plan too small to be interesting");
        let cfg = MarketConfig {
            faults,
            ..faulty_cfg(sessions)
        };
        let (out, pool) = MarketSim::new(pool, cfg, seed).run_full();
        let helper_crashes: u64 = (1..=3).map(|p| out.class(p).helper_crashes).sum();
        assert!(
            helper_crashes > 0,
            "no held helper ever crashed — test workload too thin"
        );
        assert!(out.crash_repairs > 0, "detections never ran the repair");
        assert_eq!(out.failovers(), 0, "no root crashed, yet a failover ran");
        // The contract: nothing stranded at the horizon.
        assert_eq!(
            out.leaked_degrees, 0,
            "inactive sessions still hold degrees"
        );
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
        assert!(out.audit.samples > 0);
        // No dead host still carries booked degrees once the dust settles:
        // detection released them or their leases lapsed.
        for h in pool.net.hosts.ids() {
            if !pool.is_alive(h) {
                let t = pool.table(h);
                for s in pool.sessions_holding() {
                    assert!(
                        t.held_by(s) == 0 || pool.holds_on(s, h),
                        "ghost claim on dead {h:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn multipath_sessions_fail_over_and_stay_leak_free() {
        // Same helper-crash workload as above, but every session plans one
        // degree-disjoint standby tree. Broken primaries must be replaced
        // by intact standbys within a detection round, lost trees must be
        // lazily rebuilt, and the books must still balance — including the
        // new cross-tree disjointness invariant sampled all run long.
        let pool = small_pool(21);
        let seed = 21;
        let sessions = 9;
        let member_hosts: std::collections::HashSet<netsim::HostId> = pool
            .partition_members(sessions, 12, seed)
            .into_iter()
            .flatten()
            .collect();
        let mut faults = simcore::FaultPlan::none();
        for h in pool.net.hosts.ids() {
            if !member_hosts.contains(&h) && h.0 % 4 == 0 {
                faults = faults.crash_forever(h.0 as u64, SimTime::from_secs(700 + h.0 as u64));
            }
        }
        let cfg = MarketConfig {
            faults,
            plan: PlanConfig {
                model: PlanModel::Oracle,
                k_trees: 2,
                ..PlanConfig::default()
            },
            ..faulty_cfg(sessions)
        };
        let (out, pool) = MarketSim::new(pool, cfg, seed).run_full();
        assert!(
            out.tree_failovers > 0,
            "no standby tree was ever promoted — workload too thin"
        );
        assert!(out.trees_rebuilt > 0, "no lost tree was ever rebuilt");
        assert!(out.delivery.count() > 0, "delivery was never sampled");
        assert!(
            out.delivery.mean() > 0.9,
            "multipath delivery collapsed: {}",
            out.delivery.mean()
        );
        assert!(out.restore_rounds.count() > 0, "no outage was ever closed");
        assert_eq!(out.leaked_degrees, 0, "sessions leaked degrees");
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
        assert!(out.audit.samples > 0);
        // Dead hosts carry no ghost claims once the dust settles.
        for h in pool.net.hosts.ids() {
            if !pool.is_alive(h) {
                let t = pool.table(h);
                for s in pool.sessions_holding() {
                    assert!(
                        t.held_by(s) == 0 || pool.holds_on(s, h),
                        "ghost claim on dead {h:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_resync_handles_crashes_without_full_replans() {
        // Same workload as the helper-crash test above: the repairs must
        // be absorbed by holdings re-syncs, and the books must still
        // balance at the horizon.
        let pool = small_pool(21);
        let seed = 21;
        let sessions = 9;
        let member_hosts: std::collections::HashSet<netsim::HostId> = pool
            .partition_members(sessions, 12, seed)
            .into_iter()
            .flatten()
            .collect();
        let mut faults = simcore::FaultPlan::none();
        for h in pool.net.hosts.ids() {
            if !member_hosts.contains(&h) && h.0 % 4 == 0 {
                faults = faults.crash_forever(h.0 as u64, SimTime::from_secs(700 + h.0 as u64));
            }
        }
        let cfg = MarketConfig {
            faults,
            ..faulty_cfg(sessions)
        };
        let (out, _) = MarketSim::new(pool, cfg, seed).run_full();
        assert!(out.crash_repairs > 0, "detections never ran the repair");
        assert!(
            out.incremental_replans > 0,
            "no repair was absorbed incrementally"
        );
        assert_eq!(
            out.incremental_replans + out.resync_fallbacks,
            out.crash_repairs,
            "every repair must either re-sync or fall back"
        );
        assert_eq!(out.leaked_degrees, 0);
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    }

    #[test]
    fn root_crash_fails_over_to_a_surviving_member() {
        let pool = small_pool(22);
        let seed = 22;
        let sessions = 9;
        let sets = pool.partition_members(sessions, 12, seed);
        // Kill three session roots mid-run, well after warm-up.
        let mut faults = simcore::FaultPlan::none();
        for set in sets.iter().take(3) {
            faults = faults.crash_forever(set[0].0 as u64, SimTime::from_secs(900));
        }
        let cfg = MarketConfig {
            faults,
            ..faulty_cfg(sessions)
        };
        let (out, _) = MarketSim::new(pool, cfg, seed).run_full();
        assert!(
            out.failovers() >= 1,
            "no deputy ever took over a crashed root"
        );
        assert_eq!(
            out.sessions_lost(),
            0,
            "members survived, yet a session died"
        );
        assert_eq!(out.leaked_degrees, 0);
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    }

    #[test]
    fn without_failover_leases_lapse_and_nothing_leaks() {
        let pool = small_pool(23);
        let seed = 23;
        let sessions = 9;
        let sets = pool.partition_members(sessions, 12, seed);
        let mut faults = simcore::FaultPlan::none();
        for set in sets.iter().take(3) {
            faults = faults.crash_forever(set[0].0 as u64, SimTime::from_secs(700));
        }
        let cfg = MarketConfig {
            faults,
            failover: false,
            ..faulty_cfg(sessions)
        };
        let (out, _) = MarketSim::new(pool, cfg, seed).run_full();
        assert_eq!(out.failovers(), 0);
        // Nobody released the dead managers' claims — the leases did.
        assert!(
            out.lapsed_lease_degrees > 0,
            "dead sessions never lapsed a lease"
        );
        assert_eq!(
            out.leaked_degrees, 0,
            "leases failed to reclaim a dead session"
        );
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    }

    #[test]
    fn stale_view_refusals_are_counted_and_leave_no_ghost_claims() {
        // The `view_refresh` regime: task managers plan from a snapshot up
        // to 10 minutes old, so helper reservations get refused — and every
        // refused attempt must roll back completely.
        let pool = small_pool(24);
        let cfg = MarketConfig {
            view_refresh: Some(SimTime::from_secs(600)),
            ..faulty_cfg(12)
        };
        let (out, mut pool) = MarketSim::new(pool, cfg, 24).run_full();
        let refusals: u64 = (1..=3).map(|p| out.class(p).helper_failures).sum();
        assert!(
            refusals > 0,
            "a 10-minute-stale view never caused a refusal"
        );
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
        // Releasing every slot must drain the pool to zero: refused
        // reservations may not leave partial claims behind.
        for i in 0..12u32 {
            pool.release_session(SessionId(i));
        }
        assert_eq!(pool.total_used(), 0, "ghost claims survive a full release");
    }

    #[test]
    fn zero_fault_plan_matches_the_fault_oblivious_trajectory() {
        // The no-op fault path contract, in miniature: an explicitly empty
        // fault plan (with auditing on) must not perturb a single stat.
        let a = small_market(6, 31).run();
        let cfg_b = MarketConfig {
            faults: simcore::FaultPlan::none(),
            audit_period: Some(SimTime::from_secs(30)),
            ..faulty_cfg(6)
        };
        let b = MarketSim::new(small_pool(31), cfg_b, 31).run();
        assert_eq!(a.plans, b.plans);
        for p in 1..=3u8 {
            assert_eq!(a.class(p).improvement.mean(), b.class(p).improvement.mean());
            assert_eq!(a.class(p).helpers.mean(), b.class(p).helpers.mean());
            assert_eq!(a.class(p).preemptions, b.class(p).preemptions);
        }
        assert_eq!(a.utilization.mean(), b.utilization.mean());
        assert_eq!(b.crash_repairs, 0);
        assert_eq!(b.lapsed_lease_degrees, 0);
        assert!(b.audit.is_clean());
    }

    /// A 3-session market over a small pool with `shape` applied to its
    /// config — the degenerate-config rejections below.
    fn degenerate(shape: impl FnOnce(&mut MarketConfig)) -> MarketSim {
        let mut cfg = faulty_cfg(3);
        shape(&mut cfg);
        MarketSim::new(small_pool(51), cfg, 51)
    }

    #[test]
    #[should_panic(expected = "member_size must be at least 1")]
    fn zero_member_size_is_rejected() {
        degenerate(|c| c.member_size = 0);
    }

    #[test]
    #[should_panic(expected = "replan_period must be positive")]
    fn zero_replan_period_is_rejected() {
        degenerate(|c| c.replan_period = SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "audit_period must be positive")]
    fn zero_audit_period_is_rejected() {
        degenerate(|c| c.audit_period = Some(SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "view_refresh must be positive")]
    fn zero_view_refresh_is_rejected() {
        degenerate(|c| c.view_refresh = Some(SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "detect_delay must be positive under a fault plan")]
    fn zero_detect_delay_under_faults_is_rejected() {
        degenerate(|c| {
            c.faults = simcore::FaultPlan::none().crash_forever(0, SimTime::from_secs(700));
            c.detect_delay = SimTime::ZERO;
        });
    }

    #[test]
    fn zero_detect_delay_without_faults_is_harmless() {
        // No fault plan, no detection rounds: the delay is never used.
        let out = degenerate(|c| c.detect_delay = SimTime::ZERO).run();
        assert!(out.plans > 0);
    }

    #[test]
    #[should_panic(expected = "snapshot_period must be positive")]
    fn zero_liveops_snapshot_period_is_rejected() {
        let lo = LiveOps::new(crate::liveops::LiveOpsConfig {
            snapshot_period: SimTime::ZERO,
            ..Default::default()
        });
        degenerate(|_| {}).attach_liveops(lo);
    }

    #[test]
    #[should_panic(expected = "subscription 1: member 300 out of range for a ring of 300 members")]
    fn liveops_subscription_from_a_stranger_is_rejected_at_attach() {
        let mut lo = LiveOps::new(crate::liveops::LiveOpsConfig::default());
        lo.subscribe(299, [0.0, 0.0], 1e9, 3, 1, 5);
        lo.subscribe(300, [0.0, 0.0], 1e9, 3, 1, 5);
        degenerate(|_| {}).attach_liveops(lo);
    }

    #[test]
    fn pareto_mode_spreads_shares_across_all_classes() {
        let cfg = MarketConfig {
            allocation: AllocationMode::Pareto,
            ..faulty_cfg(9)
        };
        let out = MarketSim::new(small_pool(41), cfg, 41).run();
        assert!(out.plans > 9);
        for p in 1..=3u8 {
            assert!(
                out.class(p).improvement.count() > 0,
                "no samples for priority {p}"
            );
        }
        let jain = out.jain_fairness();
        assert!(
            jain > 0.0 && jain <= 1.0 + 1e-9,
            "jain out of range: {jain}"
        );
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    }

    #[test]
    fn admission_mode_degrades_under_pressure_without_preempting() {
        // Thresholds above any attainable free fraction: every arrival is
        // forced down the degraded path, exercising the trimmed-budget
        // planner while the no-preemption invariant watches.
        let cfg = MarketConfig {
            allocation: AllocationMode::Admission,
            admission: AdmissionConfig {
                scarce_free_frac: 1.5,
                degrade_free_frac: 0.5,
                ..AdmissionConfig::default()
            },
            ..faulty_cfg(9)
        };
        let out = MarketSim::new(small_pool(42), cfg, 42).run();
        assert!(out.admission.arrivals > 0);
        assert_eq!(out.admission.admitted, 0);
        assert!(out.admission.degraded > 0, "nothing took the degraded path");
        assert!(
            out.class(DEGRADED_CLASS).improvement.count() > 0,
            "degraded admissions left no stats in their class"
        );
        // Graceful degradation instead of eviction: zero preemptions in
        // any class, and the conservation books balance.
        for (_, p) in out.per_class.iter() {
            assert_eq!(p.preemptions, 0);
        }
        assert_eq!(
            out.admission.arrivals,
            out.admission.admitted
                + out.admission.degraded
                + out.admission.rejected
                + out.admission.queued_final
        );
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
    }

    #[test]
    fn admission_queue_bounds_and_timeouts_reject_cleanly() {
        // Both thresholds unattainable: every arrival queues (or bounces
        // off the tiny FIFO), retries with capped backoff, and times out.
        let cfg = MarketConfig {
            allocation: AllocationMode::Admission,
            admission: AdmissionConfig {
                scarce_free_frac: 2.0,
                degrade_free_frac: 1.5,
                queue_cap: 1,
                backoff: SimTime::from_secs(10),
                max_attempts: 3,
            },
            ..faulty_cfg(9)
        };
        let (out, pool) = MarketSim::new(small_pool(43), cfg, 43).run_full();
        assert_eq!(out.plans, 0, "an inadmissible arrival planned anyway");
        assert!(out.admission.rejected > 0);
        assert!(out.admission.timeouts > 0, "no retry ever timed out");
        assert!(out.admission.max_queue_depth >= 1);
        assert_eq!(
            out.admission.arrivals,
            out.admission.rejected + out.admission.queued_final
        );
        assert!(out.audit.is_clean(), "audit: {:?}", out.audit.violations);
        assert_eq!(pool.total_used(), 0, "queued sessions hold no degrees");
    }
}
