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
//!   missed renewal ack, one 5 s detection round after the crash), which
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
//!   session's holdings from the SOMO-published degree tables (the one
//!   record of who holds what) and replans; a session with no survivors
//!   is lost and its leases lapse;
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
//! * the market's invariant set is sampled on the event clock by a
//!   [`simcore::Auditor`] — degree conservation, lease/holder
//!   consistency, tree degree bounds and cross-tree disjointness —
//!   hard-failing under `debug-assertions`.
//!
//! Leases, the lease sweep and the liveness rules run under every fault
//! plan, the empty one included: a crash-free run is the same market with
//! nothing to detect. A live session replans at least every 120 s and a
//! lease lasts 300 s, so without a crash no lease ever lapses.

use alm::dynamic::ReattachConfig;
use alm::MulticastTree;
use netsim::HostId;
use rand::Rng;
use simcore::audit::Auditor;
use simcore::rng::derive_rng2;
use simcore::stats::OnlineStats;
use simcore::trace::{TraceEvent, Tracer};
use simcore::{EventQueue, FaultPlan, SimTime};
use std::collections::HashSet;

use crate::degree_table::SessionId;
use crate::liveops::{LiveOps, MarketStoreHandle, SlotSnap};
use crate::task_manager::{PlanConfig, SessionSpec, FAIR_HELPER_RANK};
use crate::{ResourcePool, ResourceReport};

mod admission;
mod audit;
mod faults;
mod outcome;
mod session;
#[cfg(test)]
mod tests;

use admission::queued;
pub use admission::AdmissionConfig;
pub use outcome::{AdmissionStats, ClassStatsMap, MarketOutcome, PriorityStats, DEGRADED_CLASS};
pub use session::water_fill;

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

/// Helper-degree budget of a degraded admission.
const DEGRADED_HELPER_BUDGET: u64 = 4;
/// Member fan-out cap of a degraded admission's tree.
const DEGRADED_MEMBER_DEGREE: u32 = 2;

/// Mean active duration of a session: each one draws its length
/// uniformly from half to one and a half times this mean.
const MEAN_ACTIVE: SimTime = SimTime::from_secs(600);
/// How long after a root's crash the deputy concludes the task manager is
/// gone and takes over.
const FAILOVER_DELAY: SimTime = SimTime::from_secs(30);
/// Period of every session's voluntary replan — which renews its leases —
/// and of the lease-expiry sweep.
const REPLAN_PERIOD: SimTime = SimTime::from_secs(120);
/// How long after a helper's crash its owning task manager notices (the
/// missed renewal ack); also the period of the delivery-accounting round.
const DETECT_DELAY: SimTime = SimTime::from_secs(5);

/// Market workload configuration.
#[derive(Clone, Debug)]
pub struct MarketConfig {
    /// Number of session slots (the paper sweeps 10–60).
    pub sessions: usize,
    /// Members per session (20 in the paper).
    pub member_size: usize,
    /// Mean idle gap between a slot's sessions.
    pub mean_gap: SimTime,
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
    /// report (default) or the hierarchical query index. Ignored when
    /// `view_refresh` is `None` (live planning, as fig 10 and every
    /// `MarketConfig::default()` run plan).
    pub discovery: DiscoveryMode,
    /// Fault plan. The crash schedules are interpreted (node labels are
    /// host indices); the read-only delivery rounds run when it has
    /// crashes or message loss, and draw that loss from its rate and seed.
    pub faults: FaultPlan,
    /// Lease lifetime of every reservation. Each replan renews the
    /// session's leases, so any value comfortably above the 120 s replan
    /// period keeps a live session from ever lapsing.
    pub lease_ttl: SimTime,
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
            horizon: SimTime::from_secs(3600),
            warmup: SimTime::from_secs(600),
            plan: PlanConfig::default(),
            view_refresh: None,
            discovery: DiscoveryMode::Snapshot,
            faults: FaultPlan::none(),
            lease_ttl: SimTime::from_secs(300),
            reattach: ReattachConfig::default(),
            audit_period: Some(SimTime::from_secs(60)),
            allocation: AllocationMode::default(),
            admission: AdmissionConfig::default(),
            plan_threads: 1,
        }
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
    /// Periodic read-only delivery-accounting sample (runs with crashes
    /// or message loss only).
    DeliveryRound,
    /// Periodic lease-expiry sweep: what a dead task manager booked lapses
    /// back to the pool.
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

/// Where a slot is in its life (DESIGN §9.2). The legal edges are
/// `Idle → Queued → Idle` (the admission queue) and `Idle → Active → Idle`
/// (one session); [`MarketSim::enter`] is the only way between them.
#[derive(Debug)]
enum Phase {
    /// Between sessions: the next `Ev::Start` is scheduled.
    Idle,
    /// In its class's admission FIFO (Admission mode only), which is the
    /// class's queued slots in `ticket` order. The ticket is the arrival's
    /// number in the run, so later arrivals queue behind earlier ones.
    Queued { since: SimTime, ticket: u64 },
    /// A session is running. `trees[0]` serves and `trees[1..]` are the
    /// standbys of a multipath plan; an empty list means dormant (fewer
    /// than two live members: nothing booked). `broken_since` is open
    /// while a crash has hit the serving tree or its source and no repair,
    /// promotion or replan has landed yet — rounds-to-restore bookkeeping
    /// only.
    Active {
        trees: Vec<MulticastTree>,
        broken_since: Option<SimTime>,
    },
}

struct Slot {
    spec: SessionSpec,
    /// Sessions started: stamps the events that must not outlive one.
    cycle: u64,
    /// Next lives drawn on the defer stream: starts deferred because no
    /// member was alive, rejections and lost sessions.
    defers: u64,
    /// The last cycle was admitted degraded (Admission mode only): reduced
    /// helper budget, trimmed fan-out, stats under [`DEGRADED_CLASS`].
    /// Outside `phase` because idle slots still export it.
    degraded: bool,
    /// An `Ev::PreemptReplan` is queued — it outlives `Ev::End` (ROADMAP
    /// item 1), so it is no part of `phase`.
    replan_pending: bool,
    phase: Phase,
}

impl Phase {
    /// The running session's trees (`[0]` serves); empty unless active.
    fn trees(&self) -> &[MulticastTree] {
        match self {
            Phase::Active { trees, .. } => trees,
            Phase::Idle | Phase::Queued { .. } => &[],
        }
    }
}

impl Slot {
    fn is_active(&self) -> bool {
        matches!(self.phase, Phase::Active { .. })
    }

    /// The running session's trees and outage window.
    ///
    /// # Panics
    /// If the slot is not active: only a running session has either.
    fn session_mut(&mut self) -> (&mut Vec<MulticastTree>, &mut Option<SimTime>) {
        match &mut self.phase {
            Phase::Active {
                trees,
                broken_since,
            } => (trees, broken_since),
            phase => panic!("slot {:?} has no session while {phase:?}", self.spec.id),
        }
    }
}

/// The [`AllocationMode`] with the state only that mode owns, built once
/// from [`MarketConfig::allocation`] in [`MarketSim::new`]: nothing reads
/// the config field after that.
enum Mode {
    Priority,
    Pareto,
    Admission(AdmissionCtl),
}

/// The admission controller's state ([`Mode::Admission`]).
struct AdmissionCtl {
    /// Preemption victims observed — the counter behind the
    /// zero-preemption invariant, bumped regardless of warm-up.
    preemptions: u64,
    /// Every market member host; plans exclude them as helper candidates
    /// so member-rank reserves can never evict another session's helpers.
    member_hosts: HashSet<HostId>,
    /// Scarcity-crossing subscription; emits `MarketPressureShift` on
    /// threshold crossings of the fair-rank free fraction.
    pressure_watch: query::PressureWatch,
}

/// Where Priority-mode task managers discover helpers: the live degree
/// tables, or the surface `cfg.view_refresh` refreshes. A surface is
/// `None` until its first refresh, and plans fall back to the live
/// tables meanwhile.
enum Discovery {
    /// No `view_refresh`: plan from live degree tables.
    Live,
    /// The shared SOMO snapshot report.
    Snapshot { view: Option<ResourceReport> },
    /// The hierarchical aggregate index.
    Query { index: Option<query::QueryIndex> },
}

/// The market simulator.
pub struct MarketSim {
    pool: ResourcePool,
    cfg: MarketConfig,
    slots: Vec<Slot>,
    queue: EventQueue<Ev>,
    outcome: MarketOutcome,
    seed: u64,
    discovery: Discovery,
    auditor: Option<Auditor>,
    tracer: Tracer,
    mode: Mode,
    /// The attached live-operations surface (see [`crate::liveops`]);
    /// `None` unless [`Self::attach_liveops`] was called.
    liveops: Option<LiveOps>,
}

/// What the planner is handed for one session: the session spec as shaped
/// for the moment (deputy root promoted, dead members dropped) plus the
/// lease deadline the reservations carry.
struct SpecInput {
    spec: SessionSpec,
    lease: SimTime,
}

/// Why a session cannot plan right now.
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
    /// event's period is zero — `audit_period` or `view_refresh`: each
    /// would re-arm at the same instant forever and the run would never
    /// leave it. Also if the pool is too small for the member sets
    /// ([`ResourcePool::partition_members`]).
    pub fn new(pool: ResourcePool, cfg: MarketConfig, seed: u64) -> MarketSim {
        assert!(cfg.member_size > 0, "member_size must be at least 1");
        assert!(
            cfg.audit_period != Some(SimTime::ZERO),
            "audit_period must be positive (None disables auditing)"
        );
        assert!(
            cfg.view_refresh != Some(SimTime::ZERO),
            "view_refresh must be positive (None plans from live tables)"
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
                    cycle: 0,
                    defers: 0,
                    degraded: false,
                    replan_pending: false,
                    phase: Phase::Idle,
                }
            })
            .collect();
        // Stagger starts across the first gap period.
        for i in 0..slots.len() {
            let mut rng = derive_rng2(seed, 0xA11, i as u64);
            let at = SimTime::from_micros(rng.random_range(0..cfg.mean_gap.as_micros().max(1)));
            queue.schedule(at, Ev::Start(i));
        }
        let discovery = match (cfg.view_refresh, cfg.discovery) {
            (None, _) => Discovery::Live,
            (Some(_), DiscoveryMode::Snapshot) => Discovery::Snapshot { view: None },
            (Some(_), DiscoveryMode::Query) => Discovery::Query { index: None },
        };
        if cfg.view_refresh.is_some() {
            queue.schedule(SimTime::ZERO, Ev::RefreshView);
        }
        let n = pool.num_hosts() as u64;
        for (at, node, down) in cfg.faults.crash_edges() {
            if node < n {
                queue.schedule(at, Ev::HostFault(HostId(node as u32), down));
            }
        }
        queue.schedule(REPLAN_PERIOD, Ev::ExpireLeases);
        // Delivery accounting samples once per detection round when there
        // is something to lose: crashes or message loss. The handler is
        // strictly read-only (no pool, RNG or schedule mutation beyond its
        // own re-arm), so the rounds cannot perturb the trajectory they
        // measure.
        if !cfg.faults.crashes.is_empty() || cfg.faults.loss > 0.0 {
            queue.schedule(DETECT_DELAY, Ev::DeliveryRound);
        }
        let auditor = cfg.audit_period.map(Auditor::every);
        if auditor.is_some() {
            queue.schedule(SimTime::ZERO, Ev::Audit);
        }
        let mode = match cfg.allocation {
            AllocationMode::Priority => Mode::Priority,
            AllocationMode::Pareto => Mode::Pareto,
            AllocationMode::Admission => Mode::Admission(AdmissionCtl {
                preemptions: 0,
                member_hosts: slots
                    .iter()
                    .flat_map(|s| s.spec.members.iter().copied())
                    .collect(),
                pressure_watch: query::PressureWatch::new(
                    FAIR_HELPER_RANK.0,
                    cfg.admission.scarce_free_frac,
                ),
            }),
        };
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
            discovery,
            auditor,
            tracer: Tracer::disabled(),
            mode,
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
    /// surface (the trace-equivalence gate in `tests/liveops_pins.rs`).
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
            .map(|s| {
                let (queued_since, broken_since) = match s.phase {
                    Phase::Idle => (None, None),
                    Phase::Queued { since, .. } => (Some(since), None),
                    Phase::Active { broken_since, .. } => (None, broken_since),
                };
                SlotSnap {
                    session: s.spec.id.0,
                    active: s.is_active(),
                    replan_pending: s.replan_pending,
                    cycle: s.cycle,
                    degraded: s.degraded,
                    defers: s.defers,
                    queued_since_us: queued_since.map(SimTime::as_micros),
                    broken_since_us: broken_since.map(SimTime::as_micros),
                }
            })
            .collect()
    }

    /// The admission FIFOs as store-ready mirrors: each class's queued
    /// slots in ticket order (three empty queues outside Admission mode).
    fn queue_snaps(&self) -> [Vec<u32>; 3] {
        let mut queued: Vec<(u64, usize)> = (0..self.slots.len())
            .filter_map(|i| match self.slots[i].phase {
                Phase::Queued { ticket, .. } => Some((ticket, i)),
                _ => None,
            })
            .collect();
        queued.sort_unstable();
        let mut fifos: [Vec<u32>; 3] = Default::default();
        for (_, i) in queued {
            fifos[self.slots[i].spec.priority as usize - 1].push(i as u32);
        }
        fifos
    }

    /// Absorb one handled event's changes into the attached store: the
    /// drained pool op log plus any slot/queue transitions. No-op without
    /// a surface.
    fn store_sync(&mut self, at: SimTime) {
        let (slots, queues) = (self.slot_snaps(), self.queue_snaps());
        if let Some(lo) = &mut self.liveops {
            lo.sync(at, self.pool.drain_op_log(), &slots, &queues);
        }
    }

    /// One snapshot round of the attached store at `now` — degree tables,
    /// slot states, queues — returning the surface's period (`None`
    /// without a surface).
    fn snapshot_round(&mut self, now: SimTime) -> Option<SimTime> {
        let (slots, queues) = (self.slot_snaps(), self.queue_snaps());
        let lo = self.liveops.as_mut()?;
        lo.snapshot_round(now, &self.pool, &slots, &queues);
        Some(lo.snapshot_period())
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
            self.snapshot_round(self.cfg.horizon);
        }
        self.outcome.admission.queued_final = queued(&self.slots);
        // Closing audit sample at the horizon, then the leak census: any
        // degrees still booked to a session that is no longer active were
        // neither released nor lapsed — exactly what leases must prevent.
        self.audit_sample(self.cfg.horizon);
        for slot in &self.slots {
            if !slot.is_active() {
                self.outcome.leaked_degrees += self.pool.tables().held_total(slot.spec.id);
            }
        }
        if let Some(aud) = self.auditor.take() {
            self.outcome.audit = aud.into_report();
        }
        if let Discovery::Query { index: Some(idx) } = &self.discovery {
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
                    self.next_life(i, now, false);
                    return;
                };
                self.slots[i].spec.root = root;
                match &mut self.mode {
                    Mode::Admission(adm) => {
                        let arrivals = &mut self.outcome.admission.arrivals;
                        *arrivals = arrivals.saturating_add(1);
                        let free = adm.free_frac(
                            now,
                            queued(&self.slots),
                            &self.discovery,
                            &self.pool,
                            &mut self.tracer,
                        );
                        self.admission_decide(i, 0, free, now);
                    }
                    Mode::Priority | Mode::Pareto => self.begin_session(i, now, false),
                }
            }
            Ev::End(i, cycle) => {
                if !self.runs_cycle(i, cycle) {
                    // A stale end for a cycle that was already lost to a
                    // root crash; the slot's next life is scheduled by the
                    // failover path.
                    return;
                }
                self.enter(i, Phase::Idle);
                self.pool.release_session(self.slots[i].spec.id);
                let session = self.slots[i].spec.id.0;
                self.tracer
                    .emit(now, || TraceEvent::MarketRelease { session });
                self.next_life(i, now, true);
            }
            // Neither replan is stamped with the cycle, so both outlive
            // `Ev::End` and the periodic chain survives into the slot's
            // next session beside the one it opens (ROADMAP item 1).
            Ev::Replan(i) | Ev::PreemptReplan(i) => {
                let preempt = matches!(ev, Ev::PreemptReplan(_));
                if preempt {
                    self.slots[i].replan_pending = false;
                }
                if self.slots[i].is_active() {
                    let session = self.slots[i].spec.id.0;
                    self.tracer
                        .emit(now, || TraceEvent::MarketReplan { session, preempt });
                    self.plan(i, now);
                    if !preempt {
                        self.queue.schedule(now + REPLAN_PERIOD, Ev::Replan(i));
                    }
                }
            }
            Ev::RefreshView => {
                let period = self.cfg.view_refresh.expect("RefreshView scheduled");
                let pool = &self.pool;
                match &mut self.discovery {
                    Discovery::Live => unreachable!("RefreshView scheduled without a surface"),
                    Discovery::Snapshot { view } => {
                        *view = Some(pool.snapshot_report(ResourceReport::DEFAULT_CAP));
                    }
                    Discovery::Query { index: Some(idx) } => pool.refresh_query_index(idx, now),
                    Discovery::Query { index } => {
                        *index = Some(pool.build_query_index(period, now));
                    }
                }
                self.queue.schedule(now + period, Ev::RefreshView);
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
                self.queue.schedule(now + DETECT_DELAY, Ev::DeliveryRound);
            }
            Ev::AdmissionRetry(i, attempt) => {
                if !matches!(self.slots[i].phase, Phase::Queued { .. }) {
                    return;
                }
                // A queued root that died hands the waiting spot to a
                // surviving member, or the arrival is bounced.
                let Some(root) = self.start_root(i) else {
                    self.admission_reject(i, now, false);
                    return;
                };
                self.slots[i].spec.root = root;
                // Only Admission mode queues a slot.
                if let Mode::Admission(adm) = &mut self.mode {
                    let free = adm.free_frac(
                        now,
                        queued(&self.slots),
                        &self.discovery,
                        &self.pool,
                        &mut self.tracer,
                    );
                    self.admission_decide(i, attempt, free, now);
                }
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
                self.queue.schedule(now + REPLAN_PERIOD, Ev::ExpireLeases);
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
                if let Some(period) = self.snapshot_round(now) {
                    self.queue.schedule(now + period, Ev::Snapshot);
                }
            }
        }
    }
}
